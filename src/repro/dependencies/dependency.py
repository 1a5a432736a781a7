"""Functional and multi-valued dependencies on nested attributes (§4).

Definition 4.1 of the paper:

* An **FD** ``X → Y`` on ``N`` (``X, Y ∈ Sub(N)``) is satisfied by a finite
  ``r ⊆ dom(N)`` iff any two tuples agreeing on ``X`` also agree on ``Y``.
* An **MVD** ``X ↠ Y`` on ``N`` is satisfied by ``r`` iff for all
  ``t₁, t₂ ∈ r`` agreeing on ``X`` there is a ``t ∈ r`` with
  ``π_{X⊔Y}(t) = π_{X⊔Y}(t₁)`` and ``π_{X⊔Y^C}(t) = π_{X⊔Y^C}(t₂)``.

Lemma 4.3 characterises the trivial dependencies (satisfied by *every*
instance): ``X → Y`` is trivial iff ``Y ≤ X``; ``X ↠ Y`` is trivial iff
``Y ≤ X`` or ``X ⊔ Y = N``.

Dependencies are immutable and hashable.  They carry only their two sides;
the ambient attribute ``N`` is passed to the operations that need it
(satisfaction, triviality, complementation) because the same ``X → Y`` can
be read over different roots with different meanings of ``Y^C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..attributes.lattice import complement, join
from ..attributes.nested import NestedAttribute
from ..attributes.parser import parse_subattribute
from ..attributes.printer import unparse, unparse_abbreviated
from ..attributes.subattribute import is_subattribute
from ..exceptions import DependencySyntaxError, NotAnElementError

__all__ = [
    "FunctionalDependency",
    "MultivaluedDependency",
    "Dependency",
    "FD",
    "MVD",
    "parse_dependency",
    "split_dependency",
]


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``lhs → rhs`` (Definition 4.1).

    Example
    -------
    >>> from repro.attributes import parse_attribute
    >>> N = parse_attribute("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    >>> fd = parse_dependency("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", N)
    >>> fd.is_trivial(N)
    False
    """

    lhs: NestedAttribute
    rhs: NestedAttribute

    arrow = "->"

    @property
    def is_fd(self) -> bool:
        return True

    @property
    def is_mvd(self) -> bool:
        return False

    def validate(self, root: NestedAttribute) -> None:
        """Assert both sides lie in ``Sub(root)``."""
        for side, name in ((self.lhs, "left"), (self.rhs, "right")):
            if not is_subattribute(side, root):
                raise NotAnElementError(
                    f"{name}-hand side {unparse(side)} is not a subattribute of {unparse(root)}"
                )

    def is_trivial(self, root: NestedAttribute) -> bool:
        """Lemma 4.3: trivial iff ``rhs ≤ lhs``."""
        self.validate(root)
        return is_subattribute(self.rhs, self.lhs)

    def display(self, root: NestedAttribute | None = None) -> str:
        """Paper-style rendering, abbreviated when a root is known."""
        if root is None:
            return f"{unparse(self.lhs)} {self.arrow} {unparse(self.rhs)}"
        return (
            f"{unparse_abbreviated(self.lhs, root)} {self.arrow} "
            f"{unparse_abbreviated(self.rhs, root)}"
        )

    def __str__(self) -> str:
        return self.display()


@dataclass(frozen=True)
class MultivaluedDependency:
    """An MVD ``lhs ↠ rhs`` (Definition 4.1), written ``->>`` in ASCII.

    Theorem 4.4 makes an MVD equivalent to the losslessness of the binary
    decomposition onto ``lhs ⊔ rhs`` and ``lhs ⊔ rhs^C``; see
    :func:`repro.dependencies.satisfaction.satisfies_mvd_via_join`.
    """

    lhs: NestedAttribute
    rhs: NestedAttribute

    arrow = "->>"

    @property
    def is_fd(self) -> bool:
        return False

    @property
    def is_mvd(self) -> bool:
        return True

    def validate(self, root: NestedAttribute) -> None:
        """Assert both sides lie in ``Sub(root)``."""
        for side, name in ((self.lhs, "left"), (self.rhs, "right")):
            if not is_subattribute(side, root):
                raise NotAnElementError(
                    f"{name}-hand side {unparse(side)} is not a subattribute of {unparse(root)}"
                )

    def is_trivial(self, root: NestedAttribute) -> bool:
        """Lemma 4.3: trivial iff ``rhs ≤ lhs`` or ``lhs ⊔ rhs = root``."""
        self.validate(root)
        if is_subattribute(self.rhs, self.lhs):
            return True
        return join(root, self.lhs, self.rhs) == root

    def complemented(self, root: NestedAttribute) -> "MultivaluedDependency":
        """The complementation-rule image ``lhs ↠ rhs^C``."""
        self.validate(root)
        return MultivaluedDependency(self.lhs, complement(root, self.rhs))

    def display(self, root: NestedAttribute | None = None) -> str:
        """Paper-style rendering, abbreviated when a root is known."""
        if root is None:
            return f"{unparse(self.lhs)} {self.arrow} {unparse(self.rhs)}"
        return (
            f"{unparse_abbreviated(self.lhs, root)} {self.arrow} "
            f"{unparse_abbreviated(self.rhs, root)}"
        )

    def __str__(self) -> str:
        return self.display()


#: Either kind of dependency.
Dependency = Union[FunctionalDependency, MultivaluedDependency]

#: Short aliases mirroring the paper's prose.
FD = FunctionalDependency
MVD = MultivaluedDependency

#: Arrow spellings accepted by :func:`parse_dependency`, longest first.
_MVD_ARROWS = ("->>", "↠", "-»")
_FD_ARROWS = ("->", "→")


def split_dependency(text: str) -> tuple[bool, str, str]:
    """``(is_fd, lhs text, rhs text)`` of ``"X -> Y"`` / ``"X ->> Y"``.

    The first MVD arrow wins over any FD arrow; the side texts are
    stripped.  Shared by :func:`parse_dependency` and the mask path
    (:meth:`repro.core.session.Session.dependency_masks`).

    Raises
    ------
    DependencySyntaxError
        When the text has no arrow.
    """
    for arrows, is_fd in ((_MVD_ARROWS, False), (_FD_ARROWS, True)):
        for arrow in arrows:
            if arrow in text:
                lhs_text, _, rhs_text = text.partition(arrow)
                return is_fd, lhs_text.strip(), rhs_text.strip()
    raise DependencySyntaxError(
        f"no dependency arrow ('->' or '->>') found in {text!r}"
    )


def parse_dependency(text: str, root: NestedAttribute) -> Dependency:
    """Parse ``"X -> Y"`` (FD) or ``"X ->> Y"`` (MVD) against a root.

    Both sides use the paper's (possibly abbreviated) subattribute
    notation and are resolved against ``root``; unicode arrows ``→`` and
    ``↠`` are accepted too.

    Example
    -------
    >>> from repro.attributes import parse_attribute
    >>> N = parse_attribute("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    >>> mvd = parse_dependency(
    ...     "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])", N)
    >>> mvd.is_mvd
    True
    """
    is_fd, lhs_text, rhs_text = split_dependency(text)
    kind = FunctionalDependency if is_fd else MultivaluedDependency
    return kind(parse_subattribute(lhs_text, root),
                parse_subattribute(rhs_text, root))
