"""Realising exact agreement patterns between two values (Section 4.2).

The completeness construction of the paper starts from two tuples
``t₁, t₂ ∈ dom(N)`` that "are coincident on exactly all attributes which
are functionally determined by some fixed X" — i.e. whose *agreement set*
``{M ∈ Sub(N) | π_M(t₁) = π_M(t₂)}`` is exactly the principal ideal of a
prescribed element ``C`` (there: ``C = X⁺``).

Agreement sets are always down-closed and join-closed, hence principal
ideals in the finite lattice; conversely *every* principal ideal is
realisable, constructively:

* flat attribute, ``C = A``: the same constant; ``C = λ``: two distinct
  constants;
* record: componentwise;
* list ``L[P]``, ``C = λ``: lists of *different lengths* — projections
  preserve length, so the two values then disagree even on ``L[λ]``;
* list ``L[P]``, ``C = L[C']``: equal-length lists whose first elements
  realise exact agreement on ``C'`` inside ``P`` and whose remaining
  elements coincide.

Fresh constants are drawn per flat attribute (from its universe domain
when registered, else from an unbounded integer supply), so the two
values differ wherever — and only wherever — they must.
"""

from __future__ import annotations

from typing import Iterator

from ..attributes.nested import Flat, ListAttr, NestedAttribute, Null, Record
from ..attributes.subattribute import is_subattribute
from ..attributes.universe import Universe
from ..exceptions import NotASubattributeError
from ..values.value import OK, Value

__all__ = ["PairRealizer"]


class PairRealizer:
    """Factory of value pairs with a prescribed exact agreement element.

    Parameters
    ----------
    universe:
        Optional domain registry; registered flat attributes draw their
        fresh constants from their domain's :meth:`fresh` supply
        (failing loudly if it is too small), unregistered ones from an
        integer counter.
    list_length:
        Length used for the *agreeing* stretch of generated lists
        (default 1, the minimal faithful choice; larger values produce
        more realistic-looking data without changing agreement sets).

    Example
    -------
    >>> from repro.attributes import parse_attribute, parse_subattribute
    >>> from repro.values import project
    >>> N = parse_attribute("R(A, L[B])")
    >>> C = parse_subattribute("R(A, L[λ])", N)
    >>> t1, t2 = PairRealizer().realize(N, C)
    >>> project(N, C, t1) == project(N, C, t2)
    True
    >>> t1 == t2
    False
    """

    def __init__(self, universe: Universe | None = None, list_length: int = 1) -> None:
        if list_length < 1:
            raise ValueError("list_length must be at least 1")
        self.universe = universe if universe is not None else Universe()
        self.list_length = list_length
        self._supplies: dict[str, Iterator[Value]] = {}

    # -- constants ---------------------------------------------------------

    def fresh(self, attribute: Flat) -> Value:
        """The next unused constant for a flat attribute."""
        supply = self._supplies.get(attribute.name)
        if supply is None:
            supply = self.universe.domain_of(attribute).fresh()
            self._supplies[attribute.name] = supply
        return next(supply)

    # -- single values ------------------------------------------------------

    def make(self, attribute: NestedAttribute) -> Value:
        """One value of ``dom(attribute)`` built from fresh constants."""
        if isinstance(attribute, Null):
            return OK
        if isinstance(attribute, Flat):
            return self.fresh(attribute)
        if isinstance(attribute, Record):
            return tuple(self.make(component) for component in attribute.components)
        if isinstance(attribute, ListAttr):
            return tuple(
                self.make(attribute.element) for _ in range(self.list_length)
            )
        raise TypeError(f"not a nested attribute: {attribute!r}")  # pragma: no cover

    # -- pairs ---------------------------------------------------------------

    def realize(self, root: NestedAttribute,
                agreement: NestedAttribute) -> tuple[Value, Value]:
        """Two values of ``dom(root)`` agreeing on exactly ``Sub(agreement)``.

        Raises
        ------
        NotASubattributeError
            If ``agreement ≰ root``.
        """
        if not is_subattribute(agreement, root):
            raise NotASubattributeError(
                f"{agreement} is not a subattribute of {root}"
            )
        return self._realize(root, agreement)

    def _realize(self, root: NestedAttribute,
                 agreement: NestedAttribute) -> tuple[Value, Value]:
        if agreement == root:
            shared = self.make(root)
            return (shared, shared)
        if isinstance(root, Flat):
            # agreement == λ here (the == root case is above).
            return (self.fresh(root), self.fresh(root))
        if isinstance(root, Record):
            assert isinstance(agreement, Record)
            pairs = [
                self._realize(component_root, component_agreement)
                for component_root, component_agreement in zip(
                    root.components, agreement.components
                )
            ]
            return (
                tuple(first for first, _ in pairs),
                tuple(second for _, second in pairs),
            )
        if isinstance(root, ListAttr):
            if isinstance(agreement, Null):
                # Different lengths: disagreement on L[λ] and everything
                # above it, because projections preserve length.
                short = tuple(
                    self.make(root.element) for _ in range(self.list_length)
                )
                long = tuple(
                    self.make(root.element) for _ in range(self.list_length + 1)
                )
                return (short, long)
            assert isinstance(agreement, ListAttr)
            head_first, head_second = self._realize(root.element, agreement.element)
            tail = tuple(self.make(root.element) for _ in range(self.list_length - 1))
            return ((head_first,) + tail, (head_second,) + tail)
        if isinstance(root, Null):  # pragma: no cover - agreement == root above
            return (OK, OK)
        raise TypeError(f"not a nested attribute: {root!r}")  # pragma: no cover

