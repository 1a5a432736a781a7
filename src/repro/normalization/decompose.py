"""Lossless 4NF-style decomposition driven by dependency bases.

The classical 4NF decomposition algorithm lifts to nested attributes:
while some component ``Z`` admits a non-trivial implied MVD ``X ↠ Y``
(``X, Y ≤ Z``) whose left-hand side is not a superkey *of the component*,
split ``Z`` into ``Z₁ = X ⊔ Y`` and ``Z₂ = X ⊔ (Z ∸ Y)``.

Losslessness of every split follows from Theorem 4.4 plus the projection
property of MVDs: if ``r ⊨ X ↠ Y`` on ``N`` and ``X ≤ Z``, the exchange
tuple witnessing the MVD projects onto ``Z``, so ``π_Z(r) ⊨ X ↠ Y ⊓ Z``
(with the complement taken inside ``Z``).  Components are elements of
``Sub(N)`` and are themselves valid nested attributes, so the recursion
needs no new machinery.

Scope note (beyond the paper): finding *all* implied dependencies on a
projection is the embedded-implication problem, which is hard already in
the RDM; like every practical normalisation tool this module therefore
searches left-hand sides from a finite candidate pool (the Σ left-hand
sides and closures, meet-restricted to the component, plus the
component's basis attributes).  Every split it performs is provably
lossless; a 4NF-violating MVD outside the pool may survive.  With
``exhaustive=True`` (small components) the pool is all of ``Sub(Z)`` and
the result is exactly 4NF with respect to the projected dependencies
representable in the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..attributes.encoding import BasisEncoding, iter_bits
from ..attributes.nested import NestedAttribute
from ..dependencies.dependency import MultivaluedDependency
from ..dependencies.sigma import DependencySet
from ..core.session import Session

__all__ = ["DecompositionStep", "Decomposition", "decompose_4nf"]


@dataclass(frozen=True)
class DecompositionStep:
    """One binary split of the decomposition tree."""

    component: NestedAttribute
    mvd: MultivaluedDependency  # the violating MVD used (sides ≤ component)
    left: NestedAttribute       # X ⊔ Y
    right: NestedAttribute      # X ⊔ (component ∸ Y)


@dataclass
class Decomposition:
    """The result: final components plus the split history.

    ``components`` are elements of ``Sub(N)``; projecting an instance onto
    all of them and re-joining pairwise along the recorded splits
    reproduces the instance (lossless).
    """

    root: NestedAttribute
    components: tuple[NestedAttribute, ...]
    steps: tuple[DecompositionStep, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        from ..attributes.printer import unparse_abbreviated

        lines = ["components:"]
        lines.extend(
            f"  {unparse_abbreviated(component, self.root)}"
            for component in self.components
        )
        if self.steps:
            lines.append("splits:")
            for step in self.steps:
                lines.append(
                    f"  {unparse_abbreviated(step.component, self.root)}  --"
                    f"[{step.mvd.display(self.root)}]-->  "
                    f"{unparse_abbreviated(step.left, self.root)}  +  "
                    f"{unparse_abbreviated(step.right, self.root)}"
                )
        return "\n".join(lines)


def _candidate_lhs_masks(enc: BasisEncoding, sigma: DependencySet,
                         z_mask: int, exhaustive: bool) -> list[int]:
    """Left-hand-side candidates inside the component ``Z``."""
    if exhaustive:
        return [mask for mask in enc.all_elements() if mask & ~z_mask == 0]
    candidates: set[int] = {0}
    for dependency in sigma:
        candidates.add(enc.encode(dependency.lhs) & z_mask)
        candidates.add(enc.encode(dependency.rhs) & z_mask)
    for index in iter_bits(z_mask):
        candidates.add(enc.below[index])
    return sorted(candidates)


def decompose_4nf(sigma: DependencySet,
                  *, encoding: BasisEncoding | None = None,
                  exhaustive: bool = False,
                  max_components: int = 64) -> Decomposition:
    """Decompose ``(N, Σ)`` into lossless 4NF-style components.

    Parameters
    ----------
    exhaustive:
        Search all of ``Sub(Z)`` for violating left-hand sides (exact but
        exponential in record width); default uses the candidate pool.
    max_components:
        Safety bound on the size of the decomposition.

    Example
    -------
    >>> from repro.attributes import parse_attribute
    >>> N = parse_attribute("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    >>> sigma = DependencySet.parse(
    ...     N, ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
    >>> decomposition = decompose_4nf(sigma)
    >>> len(decomposition.components)  # pubs-per-person and beers-per-person
    2
    """
    enc = BasisEncoding.of(sigma.root, encoding)
    # One session for every component: Σ is compiled once and a
    # left-hand side shared by several components is computed once.
    session = Session(sigma.root, sigma, encoding=enc)

    final: list[int] = []
    steps: list[DecompositionStep] = []
    pending: list[int] = [enc.full]

    while pending:
        z_mask = pending.pop()
        split = _find_split(session, z_mask, exhaustive)
        if split is None:
            final.append(z_mask)
            continue
        lhs_mask, rhs_mask = split
        left_mask = lhs_mask | rhs_mask
        right_mask = lhs_mask | enc.pseudo_difference(z_mask, rhs_mask)
        steps.append(
            DecompositionStep(
                enc.decode(z_mask),
                MultivaluedDependency(enc.decode(lhs_mask), enc.decode(rhs_mask)),
                enc.decode(left_mask),
                enc.decode(right_mask),
            )
        )
        pending.extend((left_mask, right_mask))
        if len(pending) + len(final) > max_components:
            raise RuntimeError(
                f"decomposition exceeded {max_components} components"
            )

    return Decomposition(
        sigma.root,
        tuple(enc.decode(mask) for mask in sorted(final)),
        tuple(steps),
    )


def _find_split(session: Session, z_mask: int,
                exhaustive: bool) -> tuple[int, int] | None:
    """A violating ``(X, Y)`` inside the component, or ``None`` if clean.

    ``X ↠ Y`` must be implied on ``N``, have both sides inside ``Z``, be
    non-trivial *within Z* and have ``X`` short of determining all of
    ``Z`` (the component-superkey condition: ``X⁺ ⊉ Z``).
    """
    enc = session.encoding
    for lhs_mask in _candidate_lhs_masks(enc, session.sigma, z_mask,
                                         exhaustive):
        result = session.result_for_mask(lhs_mask)
        if z_mask & ~result.closure_mask == 0:
            continue  # lhs determines the whole component
        for member in result.dependency_basis_masks():
            projected = member & z_mask
            if not projected:
                continue
            if projected & ~lhs_mask == 0:
                continue  # trivial: Y ≤ X
            if (lhs_mask | projected) == z_mask:
                continue  # trivial within Z: X ⊔ Y = Z
            remainder = enc.pseudo_difference(z_mask, projected)
            if (lhs_mask | remainder) == z_mask:
                # The projected part is generated by non-maximal basis
                # attributes shared with its in-component complement (e.g.
                # a bare list length): the binary split would reproduce Z
                # and not shrink anything — skip it.
                continue
            # X ↠ member is implied on N (member ∈ DepB(X)); the MVD
            # projection property then makes X ↠ (member ⊓ Z) hold in
            # every π_Z(r) with r ⊨ Σ, so the split below is lossless.
            return (lhs_mask, projected)
    return None
