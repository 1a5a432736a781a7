"""Compiled Σ plans: one-time dependency compilation for Algorithm 5.1.

Every closure run needs the same per-Σ structure: the FDs-then-MVDs
dependency array, the relevance mask ``SubB(U) ∪ SubB(V)`` per
dependency, and the per-dependency right-hand-side constants the firing
rules recompute on every productive pass.  All of it is invariant for
the life of a ``(encoding, Σ)`` pair, so :func:`compile_plan` derives it
**once** into a :class:`CompiledPlan` — a frozen, picklable artifact the
worklist kernel (:func:`repro.core.engine.closure_of_masks_fast`) runs
off and :class:`repro.core.session.Session` owns.

The plan holds three things:

1. **Folded dependency arrays.**  Σ in the kernels' FDs-then-MVDs firing
   order with *exact duplicates* (same ``(U, V)`` masks, same kind)
   folded to their first occurrence.  Duplicates cannot change the
   fixpoint — Algorithm 5.1's output is the semantic ``(X⁺, DepB(X))``
   and ``Σ`` is logically a set — so firing each distinct dependency
   once per dirty wave reaches the same ``(X⁺, DB)``.  The
   ``origin`` remap (folded position → first original index) keeps
   ``ClosureResult.fired`` provenance in the *original* Σ indexing, and
   ``folded_of`` (original index → folded position) maps warm-start
   pending lists the other way.

2. **The inverted requeue index.**  ``requeue_masks[bit]`` is an int
   bitmask over folded positions of every dependency whose relevance
   mask contains that basis bit.  The kernel's requeue step ORs the
   masks of the dirty bits and wakes exactly those positions —
   ``O(popcount(dirty))`` index lookups instead of an ``O(|Σ|)`` scan
   of every relevance mask per dirty event.

3. **Per-dependency Ū = 0 constants.**  When ``Ū = λ`` (the common case
   once ``X_new`` covers a left-hand side), ``Ṽ = V ∸ λ`` and everything
   the firing derives from it is a per-dependency constant: the FD
   rule's RHS double-complement and its ``MaxB(Ṽ^CC)`` singleton blocks
   (with their non-CC-closed *suspects*), and the MVD rule's mixed-meet
   overlap ``Ṽ ⊓ Ṽ^C``.

Every field is an ``int`` or a tuple built in deterministic order, so
compiling the same Σ twice produces **byte-identical pickles** — the
property the plan tests (incremental compile == fresh compile) and the
CI determinism smoke rely on.

:class:`ClosureIntervalCache` rides on top: a bounded
``x_mask → closure_mask`` memo that can answer a *miss* ``X`` without
any kernel run whenever some cached ``X'`` satisfies ``X' ≤ X ≤ X'⁺``.
The closure operator of a fixed Σ is extensive, monotone and idempotent
(it is the algebraic closure operator of Proposition 4.10), so::

    X' ≤ X        ⇒  X'⁺ ≤ X⁺        (monotone)
    X  ≤ X'⁺      ⇒  X⁺  ≤ X'⁺⁺ = X'⁺ (monotone + idempotent)

forces ``X⁺ = X'⁺``.  The rule is valid for everything derived from
``X⁺`` alone — FD membership, closures, superkey tests — but **not**
for the dependency basis: ``DepB(X) ⊇ SubB(X⁺)`` also depends on the
block partition of ``X`` itself (``DB`` distinguishes ``X`` from ``X'``
even when their closures coincide), so blocks are only served on
exact-mask hits, which the session's result cache already handles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Sequence

from ..attributes.encoding import BasisEncoding, iter_bits
from ..obs import get_observer

__all__ = [
    "ClosureIntervalCache",
    "CompiledPlan",
    "PlanCacheInfo",
    "compile_plan",
]


class CompiledPlan:
    """Frozen per-``(encoding, Σ)`` compilation artifact (see module doc).

    Attributes
    ----------
    encoding:
        The :class:`BasisEncoding` the masks are relative to (pickles as
        its root; tables are rebuilt on unpickle).
    fd_masks / mvd_masks:
        The *original* (unfolded) ``(lhs, rhs)`` mask pairs, in Σ order —
        what :func:`repro.core.closure._as_mask_sigma` would produce.
    deps:
        Folded ``(u, v, is_fd)`` triples, FDs first, first-occurrence
        order.
    fd_count:
        Number of folded FD positions (``deps[:fd_count]`` are FDs).
    origin:
        Folded position → first original FDs-then-MVDs index (provenance
        remap).
    folded_of:
        Original FDs-then-MVDs index → folded position (warm-start
        pending remap).
    requeue_masks:
        Per basis bit, an int bitmask over folded positions whose
        relevance mask ``u | v`` contains the bit.
    rhs_tilde:
        Per folded position, ``V ∸ λ`` — the Ṽ of a Ū = 0 firing.
    rhs_dc:
        Per folded FD position, ``Ṽ^CC`` (``None`` for MVDs).
    rhs_singletons:
        Per folded FD position, the ``MaxB(Ṽ^CC)`` singleton block masks
        the firing inserts (``None`` for MVDs).
    rhs_suspects:
        The non-CC-closed subset of ``rhs_singletons`` — blocks the next
        FD firing must re-normalise (``None`` for MVDs).
    rhs_overlap:
        Per folded MVD position, the mixed-meet overlap ``Ṽ ⊓ Ṽ^C``
        (``None`` for FDs).
    """

    __slots__ = (
        "encoding", "fd_masks", "mvd_masks", "deps", "fd_count",
        "origin", "folded_of", "requeue_masks", "rhs_tilde", "rhs_dc",
        "rhs_singletons", "rhs_suspects", "rhs_overlap",
    )

    def __init__(self, encoding: BasisEncoding,
                 fd_masks: tuple, mvd_masks: tuple, deps: tuple,
                 fd_count: int, origin: tuple, folded_of: tuple,
                 requeue_masks: tuple, rhs_tilde: tuple, rhs_dc: tuple,
                 rhs_singletons: tuple, rhs_suspects: tuple,
                 rhs_overlap: tuple) -> None:
        self.encoding = encoding
        self.fd_masks = fd_masks
        self.mvd_masks = mvd_masks
        self.deps = deps
        self.fd_count = fd_count
        self.origin = origin
        self.folded_of = folded_of
        self.requeue_masks = requeue_masks
        self.rhs_tilde = rhs_tilde
        self.rhs_dc = rhs_dc
        self.rhs_singletons = rhs_singletons
        self.rhs_suspects = rhs_suspects
        self.rhs_overlap = rhs_overlap

    # Plans are conceptually immutable; pickling rebuilds through
    # __init__ with the all-tuple state, so equal plans pickle to equal
    # bytes (the encoding contributes only its root).
    def __reduce__(self):
        return (CompiledPlan, tuple(getattr(self, name)
                                    for name in self.__slots__))

    @property
    def fd_total(self) -> int:
        """Number of *original* (unfolded) FDs."""
        return len(self.fd_masks)

    @property
    def mvd_total(self) -> int:
        """Number of *original* (unfolded) MVDs."""
        return len(self.mvd_masks)

    @property
    def sigma_size(self) -> int:
        """``|Σ|`` before folding."""
        return len(self.fd_masks) + len(self.mvd_masks)

    def __len__(self) -> int:
        """Number of folded firing positions."""
        return len(self.deps)

    def _constants_memo(self) -> dict:
        """``(u, v, is_fd) → per-dep constants`` for incremental reuse."""
        memo = {}
        for position, key in enumerate(self.deps):
            memo[key] = (self.rhs_tilde[position], self.rhs_dc[position],
                         self.rhs_singletons[position],
                         self.rhs_suspects[position],
                         self.rhs_overlap[position])
        return memo

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(|Σ|={self.sigma_size}, folded={len(self.deps)}, "
            f"fds={self.fd_total}, mvds={self.mvd_total}, "
            f"size={self.encoding.size})"
        )


def _dep_constants(encoding: BasisEncoding, v_mask: int, is_fd: bool):
    """The Ū = 0 firing constants for one dependency."""
    v_tilde = encoding.pseudo_difference(v_mask, 0)
    if not is_fd:
        overlap = v_tilde & encoding.complement(v_tilde)
        return (v_tilde, None, None, None, overlap)
    dc = encoding.double_complement(v_tilde)
    singletons = []
    suspects = []
    below = encoding.below
    for index in iter_bits(encoding.maximal_of(dc)):
        singleton = below[index]
        singletons.append(singleton)
        if encoding.double_complement(singleton) != singleton:
            suspects.append(singleton)
    return (v_tilde, dc, tuple(singletons), tuple(suspects), None)


def compile_plan(encoding: BasisEncoding,
                 fd_masks: Sequence[tuple[int, int]],
                 mvd_masks: Sequence[tuple[int, int]],
                 *, reuse: CompiledPlan | None = None) -> CompiledPlan:
    """Compile ``(encoding, Σ)`` mask tables into a :class:`CompiledPlan`.

    ``reuse`` makes recompilation incremental: per-dependency constants
    are carried over from a previous plan for every ``(u, v, kind)``
    that survives the edit, so a ``Session.add``/``retract`` recompile
    only derives constants for the dependencies it actually changed
    (the index arrays are rebuilt — they are cheap ``O(|Σ| · popcount)``
    integer work).  Emits a ``plan.compile`` span and a ``plan.compiles``
    counter when an observer is installed.
    """
    obs = get_observer()
    if not obs.enabled:
        return _compile(encoding, fd_masks, mvd_masks, reuse)
    with obs.span("plan.compile", size=encoding.size,
                  sigma=len(fd_masks) + len(mvd_masks),
                  fds=len(fd_masks), mvds=len(mvd_masks),
                  incremental=reuse is not None) as span:
        plan = _compile(encoding, fd_masks, mvd_masks, reuse)
        span.set(folded=len(plan.deps))
    obs.metrics.add("plan.compiles")
    return plan


def _compile(encoding: BasisEncoding,
             fd_masks: Sequence[tuple[int, int]],
             mvd_masks: Sequence[tuple[int, int]],
             reuse: CompiledPlan | None) -> CompiledPlan:
    memo = reuse._constants_memo() if reuse is not None else {}

    deps: list[tuple[int, int, bool]] = []
    origin: list[int] = []
    folded_of: list[int] = []
    seen: dict[tuple[int, int, bool], int] = {}
    fd_count = 0

    pairs = [(u, v, True) for (u, v) in fd_masks]
    pairs += [(u, v, False) for (u, v) in mvd_masks]
    for index, key in enumerate(pairs):
        position = seen.get(key)
        if position is None:
            position = len(deps)
            seen[key] = position
            deps.append(key)
            origin.append(index)
            if key[2]:
                fd_count += 1
        folded_of.append(position)

    requeue_masks = [0] * encoding.size
    for position, (u, v, _is_fd) in enumerate(deps):
        bit = 1 << position
        for i in iter_bits(u | v):
            requeue_masks[i] |= bit

    rhs_tilde: list[int] = []
    rhs_dc: list[int | None] = []
    rhs_singletons: list[tuple[int, ...] | None] = []
    rhs_suspects: list[tuple[int, ...] | None] = []
    rhs_overlap: list[int | None] = []
    for key in deps:
        constants = memo.get(key)
        if constants is None:
            constants = _dep_constants(encoding, key[1], key[2])
        v_tilde, dc, singletons, suspects, overlap = constants
        rhs_tilde.append(v_tilde)
        rhs_dc.append(dc)
        rhs_singletons.append(singletons)
        rhs_suspects.append(suspects)
        rhs_overlap.append(overlap)

    return CompiledPlan(
        encoding,
        tuple(tuple(pair) for pair in fd_masks),
        tuple(tuple(pair) for pair in mvd_masks),
        tuple(deps), fd_count, tuple(origin), tuple(folded_of),
        tuple(requeue_masks), tuple(rhs_tilde), tuple(rhs_dc),
        tuple(rhs_singletons), tuple(rhs_suspects), tuple(rhs_overlap),
    )


class PlanCacheInfo(NamedTuple):
    """Counters of one :class:`ClosureIntervalCache`."""

    exact_hits: int
    interval_hits: int
    misses: int
    entries: int


class ClosureIntervalCache:
    """Bounded ``x_mask → closure_mask`` memo with interval answering.

    :meth:`lookup` serves an exact-mask hit directly, otherwise scans
    for a cached ``X'`` with ``X' ≤ X ≤ X'⁺`` — which forces
    ``X⁺ = X'⁺`` by monotonicity + idempotence of the closure operator
    (module doc).  Entries must all be fixpoints of the *current* Σ:
    the owner clears the cache on every Σ edit (closures grow on ``add``
    and shrink on ``retract``, so stale entries are wrong in both
    directions).  Counters survive :meth:`clear` (they describe the
    session's lifetime traffic) and reset with :meth:`reset`.

    Eviction is LRU on exact hits, FIFO otherwise, bounded by
    ``maxsize`` entries; the interval scan is ``O(entries)`` per miss,
    so the bound also caps the scan cost.
    """

    __slots__ = ("maxsize", "exact_hits", "interval_hits", "misses",
                 "_entries")

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.exact_hits = 0
        self.interval_hits = 0
        self.misses = 0
        self._entries: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, x_mask: int) -> int | None:
        """``X⁺`` if the cache can answer ``x_mask``, else ``None``."""
        entries = self._entries
        cached = entries.get(x_mask)
        if cached is not None:
            self.exact_hits += 1
            entries.move_to_end(x_mask)
            get_observer().add("plan.cache.exact_hits")
            return cached
        for x_prime, x_prime_plus in entries.items():
            # X' ≤ X ≤ X'⁺  ⇒  X⁺ = X'⁺ (monotone + idempotent).
            if not (x_prime & ~x_mask) and not (x_mask & ~x_prime_plus):
                self.interval_hits += 1
                get_observer().add("plan.cache.interval_hits")
                return x_prime_plus
        self.misses += 1
        get_observer().add("plan.cache.misses")
        return None

    def store(self, x_mask: int, closure_mask: int) -> None:
        """Record the fixpoint ``x_mask⁺ = closure_mask``."""
        entries = self._entries
        entries[x_mask] = closure_mask
        entries.move_to_end(x_mask)
        while len(entries) > self.maxsize:
            entries.popitem(last=False)

    def discard(self, x_mask: int) -> None:
        """Forget one entry (the owner evicted the full result for it)."""
        self._entries.pop(x_mask, None)

    def clear(self) -> None:
        """Drop the entries (Σ edited); counters keep accumulating."""
        self._entries.clear()

    def reset(self) -> None:
        """Drop entries *and* counters (the ``cache_clear`` contract)."""
        self.clear()
        self.exact_hits = 0
        self.interval_hits = 0
        self.misses = 0

    def info(self) -> PlanCacheInfo:
        return PlanCacheInfo(self.exact_hits, self.interval_hits,
                             self.misses, len(self._entries))

    def __repr__(self) -> str:
        return (
            f"ClosureIntervalCache(entries={len(self._entries)}, "
            f"exact_hits={self.exact_hits}, "
            f"interval_hits={self.interval_hits}, misses={self.misses})"
        )
