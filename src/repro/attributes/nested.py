"""Nested attributes: the type algebra of Section 3.1 of the paper.

A *nested attribute* (Definition 3.2) over a universe ``U`` of flat
attributes and a set ``L`` of labels is one of

* the *null attribute* ``λ`` (:data:`NULL`),
* a *flat attribute* ``A ∈ U`` (:class:`Flat`),
* a *record-valued attribute* ``L(N₁, …, Nₖ)`` with ``k ≥ 1``
  (:class:`Record`), or
* a *list-valued attribute* ``L[N]`` (:class:`ListAttr`).

Instances are immutable and hashable with structural equality, so they can
be used freely as dictionary keys and set members.  Subattributes of an
attribute ``N`` are represented *in the shape of* ``N`` — a subattribute of
a record keeps all component positions, with pruned positions replaced by
the bottom of the component (see :mod:`repro.attributes.subattribute`); this
sidesteps the positional-abbreviation ambiguity the paper discusses in
Section 3.3 (``L(A)`` inside ``L(A, A)``).

The paper fixes a universe and a label set once and for all; this module
does not force that bookkeeping on the caller — any well-formed term is a
valid attribute, and :class:`repro.attributes.universe.Universe` offers the
explicit registry for applications that want it.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = [
    "NestedAttribute",
    "Null",
    "NULL",
    "Flat",
    "Record",
    "ListAttr",
    "flat",
    "record",
    "list_of",
]


class NestedAttribute:
    """Abstract base class of all nested attributes.

    Concrete subclasses are :class:`Null`, :class:`Flat`, :class:`Record`
    and :class:`ListAttr`.  All of them are immutable; equality and hashing
    are structural and cached.
    """

    __slots__ = ("_hash",)

    # -- classification -------------------------------------------------

    @property
    def is_null(self) -> bool:
        """Whether this is the null attribute ``λ``."""
        return isinstance(self, Null)

    @property
    def is_flat(self) -> bool:
        """Whether this is a flat attribute ``A ∈ U``."""
        return isinstance(self, Flat)

    @property
    def is_record(self) -> bool:
        """Whether this is a record-valued attribute ``L(N₁,…,Nₖ)``."""
        return isinstance(self, Record)

    @property
    def is_list(self) -> bool:
        """Whether this is a list-valued attribute ``L[N]``."""
        return isinstance(self, ListAttr)

    # -- structural metrics ---------------------------------------------

    def depth(self) -> int:
        """Nesting depth: ``0`` for ``λ`` and flat attributes.

        Records and lists add one level per constructor, e.g.
        ``depth(L[K(A)]) == 2``.
        """
        raise NotImplementedError

    def node_count(self) -> int:
        """Number of constructor nodes in the term (``λ`` counts as one)."""
        raise NotImplementedError

    def head(self) -> str | None:
        """The identifying symbol: flat name or record/list label.

        Returns ``None`` for the null attribute.  The head is what the
        paper's abbreviated notation uses to identify record components.
        """
        raise NotImplementedError

    # -- traversal -------------------------------------------------------

    def children(self) -> tuple["NestedAttribute", ...]:
        """Immediate sub-terms (empty for ``λ`` and flat attributes)."""
        raise NotImplementedError

    def walk(self) -> Iterator["NestedAttribute"]:
        """Yield this attribute and every nested sub-term, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def flat_names(self) -> Iterator[str]:
        """Yield the names of all flat attributes occurring in the term."""
        for node in self.walk():
            if isinstance(node, Flat):
                yield node.name

    def labels(self) -> Iterator[str]:
        """Yield the labels of all record/list constructors, pre-order."""
        for node in self.walk():
            if isinstance(node, (Record, ListAttr)):
                yield node.label

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        from .printer import unparse

        return unparse(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Null(NestedAttribute):
    """The null attribute ``λ`` with ``dom(λ) = {ok}`` (Definition 3.3).

    ``λ`` carries no information; it is the bottom of the subattribute
    order below flat and list-valued attributes.  A single shared instance
    is exported as :data:`NULL`; the constructor always returns it.
    """

    __slots__ = ()

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            instance = super().__new__(cls)
            instance._hash = hash(("λ",))
            cls._instance = instance
        return cls._instance

    def depth(self) -> int:
        return 0

    def node_count(self) -> int:
        return 1

    def head(self) -> None:
        return None

    def children(self) -> tuple[NestedAttribute, ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Null, ())


#: The unique null attribute ``λ``.
NULL = Null()


class Flat(NestedAttribute):
    """A flat attribute ``A`` from the universe (Definition 3.1).

    Parameters
    ----------
    name:
        The attribute's name.  Two :class:`Flat` instances are equal
        exactly when their names are equal.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"flat attribute name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("flat", name)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def depth(self) -> int:
        return 0

    def node_count(self) -> int:
        return 1

    def head(self) -> str:
        return self.name

    def children(self) -> tuple[NestedAttribute, ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flat) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Reconstruct through the constructor: slot-based unpickling would
        # trip over the immutability guard in ``__setattr__``.
        return (Flat, (self.name,))


class Record(NestedAttribute):
    """A record-valued attribute ``L(N₁, …, Nₖ)`` with ``k ≥ 1``.

    Parameters
    ----------
    label:
        The record label ``L``.
    components:
        The component attributes ``N₁, …, Nₖ``; at least one is required
        (Definition 3.2 demands ``k ≥ 1``).
    """

    __slots__ = ("label", "components", "_head_index")

    def __init__(self, label: str, components: tuple[NestedAttribute, ...]) -> None:
        if not label or not isinstance(label, str):
            raise ValueError(f"record label must be a non-empty string, got {label!r}")
        components = tuple(components)
        if not components:
            raise ValueError("a record-valued attribute needs at least one component (k >= 1)")
        for component in components:
            if not isinstance(component, NestedAttribute):
                raise TypeError(f"record component is not a NestedAttribute: {component!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", hash(("record", label, components)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def arity(self) -> int:
        """The number of components ``k``."""
        return len(self.components)

    def replace(self, index: int, component: NestedAttribute) -> "Record":
        """Return a copy with component ``index`` replaced."""
        components = list(self.components)
        components[index] = component
        return Record(self.label, tuple(components))

    def head_index(self) -> dict[str | None, tuple[int, ...]]:
        """Component positions by head symbol, built once per record.

        The abbreviated notation identifies record components by head
        (Section 3.3); the parser and the printer look heads up here
        instead of rescanning the components.  The mapping is shared:
        treat it as read-only.
        """
        try:
            return self._head_index
        except AttributeError:
            index: dict[str | None, tuple[int, ...]] = {}
            for position, component in enumerate(self.components):
                head = component.head()
                index[head] = index.get(head, ()) + (position,)
            object.__setattr__(self, "_head_index", index)
            return index

    def depth(self) -> int:
        return 1 + max(component.depth() for component in self.components)

    def node_count(self) -> int:
        return 1 + sum(component.node_count() for component in self.components)

    def head(self) -> str:
        return self.label

    def children(self) -> tuple[NestedAttribute, ...]:
        return self.components

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self._hash == other._hash
            and self.label == other.label
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Record, (self.label, self.components))


class ListAttr(NestedAttribute):
    """A list-valued attribute ``L[N]`` (Definition 3.2).

    ``dom(L[N])`` is the set of all *finite* lists over ``dom(N)``,
    including the empty list.

    Parameters
    ----------
    label:
        The list label ``L``.
    element:
        The element attribute ``N``.
    """

    __slots__ = ("label", "element")

    def __init__(self, label: str, element: NestedAttribute) -> None:
        if not label or not isinstance(label, str):
            raise ValueError(f"list label must be a non-empty string, got {label!r}")
        if not isinstance(element, NestedAttribute):
            raise TypeError(f"list element is not a NestedAttribute: {element!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "_hash", hash(("list", label, element)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def depth(self) -> int:
        return 1 + self.element.depth()

    def node_count(self) -> int:
        return 1 + self.element.node_count()

    def head(self) -> str:
        return self.label

    def children(self) -> tuple[NestedAttribute, ...]:
        return (self.element,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ListAttr)
            and self._hash == other._hash
            and self.label == other.label
            and self.element == other.element
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ListAttr, (self.label, self.element))


# -- convenience constructors ---------------------------------------------

AttributeLike = Union[NestedAttribute, str]


def _coerce(value: AttributeLike) -> NestedAttribute:
    """Turn a bare string into a flat attribute, pass attributes through."""
    if isinstance(value, NestedAttribute):
        return value
    if isinstance(value, str):
        return NULL if value in ("λ", "lambda") else Flat(value)
    raise TypeError(f"cannot interpret {value!r} as a nested attribute")


def flat(name: str) -> Flat:
    """Build a flat attribute; alias of :class:`Flat` for fluent code."""
    return Flat(name)


def record(label: str, *components: AttributeLike) -> Record:
    """Build a record attribute, coercing bare strings to flat attributes.

    Example
    -------
    >>> str(record("Drink", "Beer", "Pub"))
    'Drink(Beer, Pub)'
    """
    return Record(label, tuple(_coerce(component) for component in components))


def list_of(label: str, element: AttributeLike) -> ListAttr:
    """Build a list attribute, coercing a bare string to a flat attribute.

    Example
    -------
    >>> str(list_of("Visit", record("Drink", "Beer", "Pub")))
    'Visit[Drink(Beer, Pub)]'
    """
    return ListAttr(label, _coerce(element))
