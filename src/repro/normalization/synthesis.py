"""Bernstein-style schema synthesis, lifted to nested attributes.

The paper's related-work section cites Bernstein's classical synthesis
[12] ("synthesizing third normal form relations from functional
dependencies") as part of the automated-design programme its membership
algorithm serves.  This module lifts the textbook algorithm through the
subattribute algebra:

1. compute a **minimal cover** of the FDs (via the membership algorithm);
2. group cover FDs by left-hand side closure-equivalence
   (``X ≡ X'`` iff ``X⁺ = X'⁺``) and emit one component
   ``X ⊔ Y₁ ⊔ … ⊔ Yₘ`` per group;
3. if no component contains a key of the whole attribute, add one
   candidate key as its own component;
4. drop components subsumed by (≤) another component.

Guarantees (each tested):

* **dependency preservation** — every cover FD has both sides inside one
  component, so it can be enforced locally;
* **lossless join** — the key component plus the FD components reassemble
  any Σ-satisfying instance (verified on witness instances in the test
  suite);
* components are pairwise ≤-incomparable.

Scope: FDs only, like the classical algorithm.  MVDs in ``Σ`` are used
for closure computations (they may strengthen keys via the mixed meet
rule) but do not generate components; use
:func:`repro.normalization.decompose_4nf` for MVD-driven splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attributes.encoding import BasisEncoding
from ..attributes.nested import NestedAttribute
from ..core.membership import minimal_cover
from ..dependencies.sigma import DependencySet
from .keys import candidate_keys

__all__ = ["SynthesisResult", "synthesize"]


@dataclass(frozen=True)
class SynthesisResult:
    """The synthesized design.

    Attributes
    ----------
    components:
        The output components (elements of ``Sub(N)``), ≤-incomparable.
    cover:
        The minimal cover the synthesis worked from.
    key_component:
        The component guaranteeing losslessness (either one that already
        contained a candidate key, or the key added in step 3).
    """

    root: NestedAttribute
    components: tuple[NestedAttribute, ...]
    cover: DependencySet
    key_component: NestedAttribute

    def describe(self) -> str:
        from ..attributes.printer import unparse_abbreviated

        lines = ["synthesized components:"]
        for component in self.components:
            marker = "  (key)" if component == self.key_component else ""
            lines.append(f"  {unparse_abbreviated(component, self.root)}{marker}")
        return "\n".join(lines)


def synthesize(sigma: DependencySet,
               *, encoding: BasisEncoding | None = None,
               engine: str | None = None) -> SynthesisResult:
    """Run the lifted Bernstein synthesis on ``Σ``'s FDs.

    One :class:`~repro.core.session.Session` is threaded through the
    whole pipeline: the minimal-cover sweep leaves it holding exactly
    the cover, so the grouping closures and the superkey scan reuse the
    cache entries the sweep already paid for.

    Example
    -------
    >>> from repro.attributes import parse_attribute
    >>> from repro.dependencies import DependencySet
    >>> N = parse_attribute("R(A, B, C, D)")
    >>> sigma = DependencySet.parse(
    ...     N, ["R(A) -> R(B)", "R(B) -> R(A)", "R(A) -> R(C)"])
    >>> result = synthesize(sigma)
    >>> len(result.components)   # {A,B,C} merged (A ≡ B), plus the D key
    2
    """
    from ..core.session import Session

    enc = BasisEncoding.of(sigma.root, encoding)
    session = Session(sigma.root, sigma, encoding=enc, engine=engine)
    # The sweep mutates the session: it ends holding exactly the cover,
    # so every closure below is asked of the right Σ.
    cover = minimal_cover(sigma, session=session)

    # Group cover FDs by closure-equivalent left-hand sides.
    groups: dict[int, list[int]] = {}       # closure mask -> [lhs|rhs masks]
    group_lhs: dict[int, int] = {}          # closure mask -> union of lhs masks
    for dependency in cover.fds():
        lhs_mask = enc.encode(dependency.lhs)
        rhs_mask = enc.encode(dependency.rhs)
        closure_mask = session.result_for_mask(lhs_mask).closure_mask
        groups.setdefault(closure_mask, []).append(lhs_mask | rhs_mask)
        group_lhs[closure_mask] = group_lhs.get(closure_mask, 0) | lhs_mask

    component_masks: list[int] = []
    for closure_mask, parts in groups.items():
        combined = group_lhs[closure_mask]
        for part in parts:
            combined |= part
        component_masks.append(combined)

    # Ensure some component is a superkey; otherwise add a candidate key.
    key_mask = None
    for mask in component_masks:
        if session.result_for_mask(mask).closure_mask == enc.full:
            key_mask = mask
            break
    if key_mask is None:
        keys = candidate_keys(sigma, encoding=enc,
                              max_generators=enc.size, max_results=1)
        if not keys:  # pragma: no cover - the root itself is always a key
            keys = (enc.root,)
        key_mask = enc.encode(keys[0])
        component_masks.append(key_mask)

    # Drop ≤-subsumed components (keep first occurrence of equals).
    kept: list[int] = []
    for mask in component_masks:
        if any(other != mask and mask & ~other == 0 for other in component_masks):
            continue
        if mask not in kept:
            kept.append(mask)
    if key_mask not in kept:  # subsumed key: its superset is the key now
        key_mask = next(m for m in kept if key_mask & ~m == 0)

    return SynthesisResult(
        sigma.root,
        tuple(enc.decode(mask) for mask in sorted(kept)),
        cover,
        enc.decode(key_mask),
    )
