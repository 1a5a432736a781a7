"""The subattribute relation ``≤`` and the set ``Sub(N)`` (Section 3.2).

Definition 3.4 of the paper defines ``≤`` on nested attributes by exactly
these rules:

* ``N ≤ N`` for every nested attribute ``N``,
* ``λ ≤ A`` for every flat attribute ``A``,
* ``λ ≤ N`` for every *list-valued* attribute ``N``,
* ``L(N₁,…,Nₖ) ≤ L(M₁,…,Mₖ)`` whenever ``Nᵢ ≤ Mᵢ`` for all ``i``,
* ``L[N] ≤ L[M]`` whenever ``N ≤ M``.

Note that ``λ`` is *not* below a record-valued attribute; the bottom of
``Sub(L(N₁,…,Nₖ))`` is ``L(λ_{N₁},…,λ_{Nₖ})`` (Definition 3.7), which the
paper merely *displays* as ``λ``.  Keeping the structural bottom explicit
internally avoids the display ambiguity discussed in Section 3.3.

Informally ``M ≤ N`` holds when ``M`` comprises at most as much information
as ``N``; formally it is witnessed by the projection function ``π^N_M``
implemented in :mod:`repro.values.projection`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .nested import NULL, Flat, ListAttr, NestedAttribute, Null, Record

__all__ = [
    "is_subattribute",
    "bottom",
    "is_bottom",
    "subattributes",
    "count_subattributes",
    "covers",
    "proper_subattributes",
]


def is_subattribute(candidate: NestedAttribute, parent: NestedAttribute) -> bool:
    """Decide ``candidate ≤ parent`` per Definition 3.4.

    The relation is a partial order (Lemma 3.5): reflexive, antisymmetric
    and transitive.

    Example
    -------
    >>> from repro.attributes import parse_attribute, parse_subattribute
    >>> root = parse_attribute("Visit[Drink(Beer, Pub)]")
    >>> is_subattribute(parse_subattribute("Visit[Drink(Beer)]", root), root)
    True
    >>> is_subattribute(parse_attribute("λ"), root)
    True
    >>> is_subattribute(parse_attribute("λ"), parse_attribute("Drink(Beer, Pub)"))
    False
    """
    if candidate is parent:
        return True
    if isinstance(candidate, Null):
        # λ ≤ A for flat A, λ ≤ L[N] for lists, λ ≤ λ; λ ≤ record does NOT hold.
        return isinstance(parent, (Flat, ListAttr, Null))
    if candidate == parent:
        return True
    if isinstance(candidate, Record) and isinstance(parent, Record):
        if (candidate.label != parent.label
                or len(candidate.components) != len(parent.components)):
            return False
        for component, component_parent in zip(candidate.components, parent.components):
            if not is_subattribute(component, component_parent):
                return False
        return True
    if isinstance(candidate, ListAttr) and isinstance(parent, ListAttr):
        if candidate.label != parent.label:
            return False
        return is_subattribute(candidate.element, parent.element)
    return False


@lru_cache(maxsize=None)
def bottom(attribute: NestedAttribute) -> NestedAttribute:
    """The bottom element ``λ_N`` of ``Sub(N)`` (Definition 3.7).

    ``λ_N = L(λ_{N₁},…,λ_{Nₖ})`` for a record-valued ``N`` and ``λ``
    otherwise (flat, list-valued, or ``λ`` itself).
    """
    if isinstance(attribute, Record):
        return Record(
            attribute.label,
            tuple(bottom(component) for component in attribute.components),
        )
    return NULL


def is_bottom(candidate: NestedAttribute, parent: NestedAttribute) -> bool:
    """Whether ``candidate`` is the bottom element ``λ_parent``."""
    return candidate == bottom(parent)


def subattributes(attribute: NestedAttribute) -> Iterator[NestedAttribute]:
    """Enumerate ``Sub(N) = {M | M ≤ N}`` in a deterministic order.

    The order is "bottom first": for every constructor the less-informative
    subattributes are produced before the more informative ones, ending
    with ``N`` itself.  The enumeration realises the structure theorem
    stated after Definition 3.8:

    * ``Sub(λ) = {λ}``,
    * ``Sub(A) = {λ, A}`` for flat ``A``,
    * ``Sub(L(N₁,…,Nₖ))`` is the direct product of the ``Sub(Nᵢ)``,
    * ``Sub(L[P])`` is ``Sub(P)`` (lifted into ``L[·]``) plus a new
      minimum ``λ``.

    Warning
    -------
    ``|Sub(N)|`` grows exponentially with the number of record components;
    use :func:`count_subattributes` first when in doubt, or work with the
    polynomial-size basis encoding in :mod:`repro.attributes.encoding`.
    """
    if isinstance(attribute, Null):
        yield NULL
    elif isinstance(attribute, Flat):
        yield NULL
        yield attribute
    elif isinstance(attribute, ListAttr):
        yield NULL
        for element_sub in subattributes(attribute.element):
            yield ListAttr(attribute.label, element_sub)
    elif isinstance(attribute, Record):
        def product(index: int) -> Iterator[tuple[NestedAttribute, ...]]:
            if index == len(attribute.components):
                yield ()
                return
            for rest in product(index + 1):
                for component_sub in subattributes(attribute.components[index]):
                    yield (component_sub,) + rest

        for components in product(0):
            yield Record(attribute.label, components)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a nested attribute: {attribute!r}")


@lru_cache(maxsize=None)
def count_subattributes(attribute: NestedAttribute) -> int:
    """``|Sub(N)|`` computed without enumerating (product/lift formula)."""
    if isinstance(attribute, Null):
        return 1
    if isinstance(attribute, Flat):
        return 2
    if isinstance(attribute, ListAttr):
        return 1 + count_subattributes(attribute.element)
    if isinstance(attribute, Record):
        total = 1
        for component in attribute.components:
            total *= count_subattributes(component)
        return total
    raise TypeError(f"not a nested attribute: {attribute!r}")  # pragma: no cover


def proper_subattributes(attribute: NestedAttribute) -> Iterator[NestedAttribute]:
    """Enumerate ``Sub(N) \\ {N}``."""
    for candidate in subattributes(attribute):
        if candidate != attribute:
            yield candidate


def covers(parent_root: NestedAttribute, lower: NestedAttribute, upper: NestedAttribute) -> bool:
    """Whether ``upper`` covers ``lower`` in ``Sub(parent_root)``.

    ``upper`` covers ``lower`` when ``lower < upper`` and no element of
    ``Sub(parent_root)`` lies strictly between them.  Used by the Hasse
    diagram builder (:mod:`repro.viz.hasse`) that reproduces Figure 1.
    """
    if lower == upper or not is_subattribute(lower, upper):
        return False
    for middle in subattributes(parent_root):
        if middle in (lower, upper):
            continue
        if is_subattribute(lower, middle) and is_subattribute(middle, upper):
            return False
    return True
