"""The membership (finite implication) decision API.

Proposition 4.10 reduces membership to the outputs of Algorithm 5.1:

* ``Σ ⊨ X → Y``  iff  ``Y ≤ X⁺``,
* ``Σ ⊨ X ↠ Y``  iff  ``Y`` is the join of some subset of ``DepB(X)``.

On top of :func:`implies` the module offers the applications the paper
motivates in Section 1.3: deciding the **equivalence** of two dependency
sets and detecting/eliminating **redundant** dependencies — "a
significant step towards automated database schema design".

All functions accept an optional pre-built
:class:`~repro.attributes.encoding.BasisEncoding`; building one is
``O(|N|²)`` and worth reusing across calls (the :class:`repro.Schema`
facade does this automatically).
"""

from __future__ import annotations

from typing import Iterable

from ..attributes.encoding import BasisEncoding
from ..attributes.nested import NestedAttribute
from ..dependencies.dependency import Dependency, FunctionalDependency, MultivaluedDependency
from ..dependencies.sigma import DependencySet
from .closure import ClosureResult, compute_closure

__all__ = [
    "closure",
    "dependency_basis",
    "implies",
    "implies_every",
    "equivalent",
    "is_redundant",
    "minimal_cover",
]


def _encoding_for(root: NestedAttribute,
                  encoding: BasisEncoding | None) -> BasisEncoding:
    # Retained as a module-local spelling of the centralized helper.
    return BasisEncoding.of(root, encoding)


def closure(sigma: DependencySet, x: NestedAttribute,
            *, encoding: BasisEncoding | None = None) -> NestedAttribute:
    """The attribute-set closure ``X⁺ = ⊔{Y | X → Y ∈ Σ⁺}``.

    Example
    -------
    >>> from repro.attributes import parse_attribute, parse_subattribute
    >>> from repro.dependencies import DependencySet
    >>> N = parse_attribute("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    >>> sigma = DependencySet.parse(
    ...     N, ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
    >>> X = parse_subattribute("Pubcrawl(Person)", N)
    >>> from repro.attributes import unparse_abbreviated
    >>> unparse_abbreviated(closure(sigma, X), N)  # mixed meet at work
    'Pubcrawl(Person, Visit[λ])'
    """
    enc = _encoding_for(sigma.root, encoding)
    return compute_closure(enc, x, sigma).closure


def dependency_basis(sigma: DependencySet, x: NestedAttribute,
                     *, encoding: BasisEncoding | None = None) -> tuple[NestedAttribute, ...]:
    """The dependency basis ``DepB(X)`` with respect to ``Σ``."""
    enc = _encoding_for(sigma.root, encoding)
    return compute_closure(enc, x, sigma).dependency_basis()


def analyse(sigma: DependencySet, x: NestedAttribute,
            *, encoding: BasisEncoding | None = None) -> ClosureResult:
    """Run Algorithm 5.1 once and keep the full result for many queries."""
    enc = _encoding_for(sigma.root, encoding)
    return compute_closure(enc, x, sigma)


def implies(sigma: DependencySet, dependency: Dependency,
            *, encoding: BasisEncoding | None = None) -> bool:
    """Decide ``Σ ⊨ σ`` (the membership problem, Theorem 6.4).

    Runs in ``O(|N|⁴ · |Σ|)`` time in the paper's size measure
    ``|N| = |SubB(N)|``.
    """
    dependency.validate(sigma.root)
    enc = _encoding_for(sigma.root, encoding)
    result = compute_closure(enc, dependency.lhs, sigma)
    rhs_mask = enc.encode(dependency.rhs)
    if isinstance(dependency, FunctionalDependency):
        return result.implies_fd_rhs(rhs_mask)
    if isinstance(dependency, MultivaluedDependency):
        return result.implies_mvd_rhs(rhs_mask)
    raise TypeError(f"not a dependency: {dependency!r}")  # pragma: no cover


def implies_every(sigma: DependencySet, dependencies: Iterable[Dependency],
                  *, encoding: BasisEncoding | None = None) -> bool:
    """Whether ``Σ`` implies **every** given dependency (one boolean).

    The questions run on one :class:`~repro.core.session.Session`, so
    Σ is compiled once and dependencies sharing a left-hand side reuse
    a single Algorithm 5.1 run.  For one verdict *per query* use
    :func:`repro.batch.implies_all`.
    """
    from .session import Session

    session = Session(sigma.root, sigma,
                      encoding=_encoding_for(sigma.root, encoding))
    return all(session.implies(dependency) for dependency in dependencies)


def equivalent(first: DependencySet, second: DependencySet,
               *, encoding: BasisEncoding | None = None,
               engine: str | None = None) -> bool:
    """Whether two dependency sets over the same root imply each other.

    This is the "equivalence of two sets of dependencies" application the
    paper names in Section 1.3.  Each direction runs over a
    :class:`~repro.core.session.Session` sharing one encoding, so
    left-hand sides common to both sets pay their closure once per
    direction at most.
    """
    if first.root != second.root:
        return False
    from .session import Session

    enc = _encoding_for(first.root, encoding)
    forward = Session(first.root, first, encoding=enc, engine=engine)
    if not all(forward.implies(d) for d in second):
        return False
    backward = Session(second.root, second, encoding=enc, engine=engine)
    return all(backward.implies(d) for d in first)


def is_redundant(sigma: DependencySet, dependency: Dependency,
                 *, encoding: BasisEncoding | None = None,
                 engine: str | None = None,
                 session=None) -> bool:
    """Whether ``σ ∈ Σ`` already follows from the *other* dependencies.

    With a :class:`~repro.core.session.Session` supplied (its Σ must
    equal ``sigma``), the check retracts ``σ``, asks the question, and
    re-adds ``σ`` — provenance keeps every cache entry whose result did
    not depend on ``σ``, so a sweep over Σ shares one cache across all
    candidates instead of recomputing per candidate.
    """
    if dependency not in sigma:
        raise ValueError("the dependency is not a member of the set")
    if session is None:
        from .session import Session

        session = Session(sigma.root, sigma,
                          encoding=_encoding_for(sigma.root, encoding),
                          engine=engine)
    session.retract(dependency)
    try:
        return session.implies(dependency)
    finally:
        session.add(dependency)


def minimal_cover(sigma: DependencySet,
                  *, encoding: BasisEncoding | None = None,
                  engine: str | None = None,
                  session=None) -> DependencySet:
    """An equivalent, redundancy-free subset of ``Σ``.

    Dependencies are dropped greedily in reverse insertion order (later,
    more "derived-looking" dependencies go first); the result depends on
    that order but is always equivalent to ``Σ`` and contains no
    dependency implied by its companions.

    The sweep drives one retraction :class:`~repro.core.session.Session`
    (pass ``session`` to share an existing one — it is left holding
    exactly the cover, which :func:`repro.normalization.synthesis`
    exploits): each candidate is retracted, tested against the survivors,
    and re-added only if it does not follow from them.  Provenance-exact
    eviction means a retraction only discards the cache entries that
    actually used the candidate, so the per-candidate membership tests
    mostly warm-start or hit outright.
    """
    if session is None:
        from .session import Session

        session = Session(sigma.root, sigma,
                          encoding=_encoding_for(sigma.root, encoding),
                          engine=engine)
    kept = set(sigma)
    for dependency in reversed(list(sigma)):
        session.retract(dependency)
        if session.implies(dependency):
            kept.discard(dependency)
        else:
            session.add(dependency)
    return DependencySet(sigma.root, (d for d in sigma if d in kept))
