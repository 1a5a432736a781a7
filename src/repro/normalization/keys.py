"""Keys and superkeys for nested attributes.

A subattribute ``X`` is a *superkey* of ``N`` w.r.t. ``Σ`` when
``Σ ⊨ X → N``, i.e. ``X⁺ = N``; a *candidate key* is a ≤-minimal superkey.
These are the ingredients of the normal-form tests in
:mod:`repro.normalization.fourth_normal_form`, mirroring the classical
definitions the paper's conclusion points at.

Candidate-key enumeration searches over generator sets of basis
attributes (every lattice element is a join of basis attributes); the
search is exponential in the worst case and therefore budgeted.
"""

from __future__ import annotations

from itertools import combinations

from ..attributes.encoding import BasisEncoding
from ..attributes.nested import NestedAttribute
from ..dependencies.sigma import DependencySet
from ..core.closure import compute_closure
from ..core.session import Session

__all__ = ["is_superkey", "candidate_keys"]


def is_superkey(sigma: DependencySet, x: NestedAttribute | int,
                *, encoding: BasisEncoding | None = None) -> bool:
    """Whether ``Σ ⊨ X → N`` (``X⁺ = N``)."""
    enc = BasisEncoding.of(sigma.root, encoding)
    result = compute_closure(enc, x, sigma)
    return result.closure_mask == enc.full


def candidate_keys(sigma: DependencySet,
                   *, encoding: BasisEncoding | None = None,
                   max_generators: int = 4,
                   max_results: int = 64) -> tuple[NestedAttribute, ...]:
    """≤-minimal superkeys, found by growing generator sets.

    Parameters
    ----------
    max_generators:
        Upper bound on the number of basis attributes joined to form a
        key candidate; keys needing more generators are not reported.
    max_results:
        Stop after this many keys.

    Notes
    -----
    The search enumerates antichain generator sets by size, so every
    reported key is minimal among the reported ones *and* globally
    ≤-minimal: a proper subattribute of a reported key would be the
    down-closure of strictly fewer/lower generators and would have been
    found at a smaller size.
    """
    enc = BasisEncoding.of(sigma.root, encoding)
    # One session for the whole search: Σ is compiled once, and its
    # closure caches answer repeated and interval-covered candidates.
    closure_mask = Session(sigma.root, sigma, encoding=enc).closure_mask_for

    found: list[int] = []
    # Only generators that are maximal within their own down-set matter;
    # enumerate subsets of basis indices by size.
    indices = list(range(enc.size))
    for size in range(0, max_generators + 1):
        for generator_set in combinations(indices, size):
            mask = 0
            for index in generator_set:
                mask |= enc.below[index]
            if any(known & ~mask == 0 for known in found):
                continue  # a subset is already a key -> not minimal
            if closure_mask(mask) == enc.full:
                found.append(mask)
                if len(found) >= max_results:
                    return tuple(enc.decode(m) for m in sorted(found))
    # Drop non-minimal leftovers (a larger-generator key may contain an
    # earlier one found at the same size with different generators).
    minimal = [
        mask
        for mask in found
        if not any(other != mask and other & ~mask == 0 for other in found)
    ]
    return tuple(enc.decode(mask) for mask in sorted(minimal))
