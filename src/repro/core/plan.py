"""Compiled Σ plans: one-time dependency compilation for Algorithm 5.1.

Every closure run needs the same per-Σ structure: the FDs-then-MVDs
dependency array, the relevance mask ``SubB(U) ∪ SubB(V)`` per
dependency, and the per-dependency right-hand-side constants the firing
rules recompute on every productive pass.  All of it is invariant for
the life of a ``(encoding, Σ)`` pair, so :func:`compile_plan` derives it
**once** into a :class:`CompiledPlan` — a picklable artifact the
worklist kernel (:func:`repro.core.engine.closure_of_masks_fast`) runs
off and :class:`repro.core.session.Session` owns and edits in place.

The plan holds three things:

1. **Folded dependency arrays.**  Σ in the kernels' FDs-then-MVDs firing
   order with *exact duplicates* (same ``(U, V)`` masks, same kind)
   folded to their first occurrence.  Duplicates cannot change the
   fixpoint — Algorithm 5.1's output is the semantic ``(X⁺, DepB(X))``
   and ``Σ`` is logically a set — so firing each distinct dependency
   once per dirty wave reaches the same ``(X⁺, DB)``.  The kernel
   reports the *positions* that fired productively, and
   :meth:`CompiledPlan.sigma_indices` alone names them as indices in
   Σ's FDs-then-MVDs order: through the ``origin`` remap (folded
   position → first original index) while the plan is as compiled.

2. **Inverted indexes.**  ``requeue_masks[bit]`` is an int bitmask over
   folded positions of every dependency whose relevance mask contains
   that basis bit.  The kernel's requeue step ORs the masks of the
   dirty bits and wakes exactly those positions — ``O(popcount(dirty))``
   index lookups instead of an ``O(|Σ|)`` scan of every relevance mask
   per dirty event.  ``lhs_index[bit]`` and ``rhs_index[bit]`` split
   the same relation by side: the positions whose ``U``, respectively
   ``V``, holds the bit.  After each state change the kernel ORs the
   ``lhs_index`` of each block's possession outside ``X_new`` to find
   the firings identity L6 of :mod:`repro.core.engine` dismisses in
   bulk, and the ``rhs_index`` of the bits of ``possessed(X_new)`` to
   count the dismissed firings with ``Ṽ = V ∸ X_new^C = λ``.

3. **Per-dependency Ū = 0 constants.**  When ``Ū = λ`` (the common case
   once ``X_new`` covers a left-hand side), ``Ṽ = V ∸ λ`` and the MVD
   rule's mixed-meet overlap ``Ṽ ⊓ Ṽ^C`` are per-dependency constants.
   The FD rule needs nothing more: the singletons it adds are
   ``Ṽ ∩ MaxB(N)`` (identity L4 of :mod:`repro.core.engine`).

Every field is an ``int`` or a tuple built in deterministic order, so
compiling the same Σ twice produces **byte-identical pickles** — the
property the plan tests rely on (incremental compile == fresh compile,
and the same Σ compiled twice).

**Delta maintenance.**  One Σ edit touches only the ``SubB(U) ∪
SubB(V)`` bits of one dependency, so a plan is edited in place rather
than recompiled (:meth:`CompiledPlan.add`, :meth:`CompiledPlan.retract`;
``O(popcount(U | V))`` plus one dependency's constants).  An edit names
a member by its masks ``(u, v, is_fd)``, and an edited plan holds each
member once, at one position.  Positions keep FDs before MVDs, each kind
in Σ order: the first ``fd_count`` positions are the FD region, the
rest the MVD region, so a live position's rank among the live positions
is its member's FDs-then-MVDs index.  An add takes the first free
position after the live ones of its kind and ORs the position's bit
into the three indexes at its bits.  A compile leaves no free position
between the regions, so an FD that finds the first live MVD in its
place first moves the MVD region up by as many positions as there are
live FDs (``O(size + |Σ|)`` shifts and no new constants); FD adds then
fill that room, and a run of them moves the region ``O(log n)`` times.
A retract clears the member's bits and leaves a *tombstone*.  The
kernel queues only ``live_mask``, and free positions are in no index,
so they never fire and the firing order — hence ``(X⁺, DB, passes)``
and the provenance — is exactly a fresh compile's.  A retract asks its
owner for a full recompile once free positions outnumber live ones.  A
recompile produces tuples again and pickles byte-identically to a fresh
compile of the same Σ.

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


#: A plan's pickled state, in constructor order.
_STATE = (
    "encoding", "deps", "fd_count", "fd_total", "mvd_total", "origin",
    "requeue_masks", "lhs_index", "rhs_index", "live_mask", "rhs_tilde",
    "rhs_overlap",
)
#: Per-position tables (grown together when an add opens a position).
_PER_POSITION = ("deps", "rhs_tilde", "rhs_overlap")
#: Per-bit tables of position bitmasks (shifted together with the MVD
#: region).
_PER_BIT = ("requeue_masks", "lhs_index", "rhs_index")


class CompiledPlan:
    """Per-``(encoding, Σ)`` compilation artifact (see module doc).

    A Σ member is its masks ``(u, v, is_fd)``: :meth:`add` and
    :meth:`retract` take one, :meth:`index_of` finds its FDs-then-MVDs
    index, and :meth:`sigma_indices` names the positions the kernel
    reports.  Tables are tuples as compiled and become lists on the
    first edit; retracted positions hold ``None``.

    Attributes
    ----------
    encoding:
        The :class:`BasisEncoding` the masks are relative to (pickles as
        its root; tables are rebuilt on unpickle).
    deps:
        Folded ``(u, v, is_fd)`` triple per firing position, FDs first,
        each kind in Σ order.
    fd_count:
        The FD region's size: positions below it hold FDs, the rest
        MVDs.
    fd_total / mvd_total:
        Number of live *original* (unfolded) FDs / MVDs.
    origin:
        Folded position → its first original index, while the plan is
        as compiled; ``None`` once edited.
    requeue_masks:
        Per basis bit, an int bitmask over folded positions whose
        relevance mask ``u | v`` contains the bit.
    lhs_index / rhs_index:
        Per basis bit, an int bitmask over folded positions whose ``u``
        (respectively ``v``) contains the bit.
    live_mask:
        Bitmask over the live positions: the initial worklist.
    rhs_tilde:
        Per folded position, ``V ∸ λ`` — the Ṽ of a Ū = 0 firing.
    rhs_overlap:
        Per folded MVD position, the mixed-meet overlap ``Ṽ ⊓ Ṽ^C``
        (``None`` for FDs).
    """

    __slots__ = _STATE + ("_masks", "_position_of")

    def __init__(self, encoding: BasisEncoding, deps: Sequence,
                 fd_count: int, fd_total: int, mvd_total: int,
                 origin: Sequence | None, requeue_masks: Sequence,
                 lhs_index: Sequence, rhs_index: Sequence, live_mask: int,
                 rhs_tilde: Sequence, rhs_overlap: Sequence,
                 masks: tuple | None = None) -> None:
        self.encoding = encoding
        self.deps = deps
        self.fd_count = fd_count
        self.fd_total = fd_total
        self.mvd_total = mvd_total
        self.origin = origin
        self.requeue_masks = requeue_masks
        self.lhs_index = lhs_index
        self.rhs_index = rhs_index
        self.live_mask = live_mask
        self.rhs_tilde = rhs_tilde
        self.rhs_overlap = rhs_overlap
        self._masks = masks
        # Member -> position, built by the first edit (_thaw).
        self._position_of: dict[tuple[int, int, bool], int] | None = None

    # Pickling rebuilds through __init__ with the all-tuple state and
    # the unfolded Σ, so equal plans pickle to equal bytes (the encoding
    # contributes only its root).
    def __reduce__(self):
        return (CompiledPlan, tuple(
            tuple(value) if isinstance(value, list) else value
            for value in (getattr(self, name) for name in _STATE)
        ) + (self._sigma_masks(),))

    @property
    def fd_masks(self) -> tuple[tuple[int, int], ...]:
        """The live FDs' ``(lhs, rhs)`` masks, unfolded, in Σ order."""
        return self._sigma_masks()[0]

    @property
    def mvd_masks(self) -> tuple[tuple[int, int], ...]:
        """The live MVDs' ``(lhs, rhs)`` masks, unfolded, in Σ order."""
        return self._sigma_masks()[1]

    def _sigma_masks(self) -> tuple[tuple, tuple]:
        masks = self._masks
        if masks is None:
            # Only an edited plan drops its masks, and it holds each
            # member once.
            members = [key for key in self.deps if key is not None]
            masks = self._masks = (
                tuple((u, v) for u, v, is_fd in members if is_fd),
                tuple((u, v) for u, v, is_fd in members if not is_fd))
        return masks

    @property
    def sigma_size(self) -> int:
        """``|Σ|`` before folding."""
        return self.fd_total + self.mvd_total

    def __len__(self) -> int:
        """Number of live folded firing positions."""
        return self.live_mask.bit_count()

    def sigma_indices(self, positions) -> frozenset[int]:
        """Map firing positions to indices in Σ's FDs-then-MVDs order.

        The numbering :attr:`ClosureResult.fired
        <repro.core.closure.ClosureResult.fired>` uses.  As compiled, a
        position names its first original index (``origin``); once
        edited, its rank among the live positions.
        """
        origin = self.origin
        if origin is not None:
            return frozenset(origin[position] for position in positions)
        live = self.live_mask
        return frozenset((live & ((1 << position) - 1)).bit_count()
                         for position in positions)

    def index_of(self, u: int, v: int, is_fd: bool) -> int:
        """The FDs-then-MVDs index of the member ``(u, v, is_fd)``.

        Raises ``ValueError`` if the plan does not hold it.
        """
        key = (u, v, is_fd)
        try:
            position = (self.deps.index(key) if self._position_of is None
                        else self._position_of[key])
        except (ValueError, KeyError):
            raise ValueError("the plan does not hold this member") from None
        (index,) = self.sigma_indices((position,))
        return index

    def _constants_memo(self) -> dict:
        """``(u, v, is_fd) → per-dep constants`` for incremental reuse."""
        memo = {}
        for position, key in enumerate(self.deps):
            if key is not None:
                memo[key] = (self.rhs_tilde[position],
                             self.rhs_overlap[position])
        return memo

    # -- delta maintenance -------------------------------------------------

    def add(self, u: int, v: int, is_fd: bool) -> None:
        """Add the member ``(u, v, is_fd)`` in place.

        It takes the first free position after the live ones of its
        kind (moving the MVD region up when an FD finds no room, see the
        module doc), gets its constants, and ORs its bit into the
        indexes at ``SubB(U) ∪ SubB(V)``.  Raises ``ValueError`` if the
        plan holds the member already.
        """
        self._thaw()
        key = (u, v, is_fd)
        if key in self._position_of:
            raise ValueError("the plan already holds this member")
        self._open(self._free_position(is_fd), key)
        if is_fd:
            self.fd_total += 1
        else:
            self.mvd_total += 1
        self._masks = None

    def retract(self, u: int, v: int, is_fd: bool) -> bool:
        """Retract the member ``(u, v, is_fd)`` in place.

        Its position's bit leaves the indexes and the position becomes a
        tombstone.  Returns ``False`` when the caller must recompile
        before the next run: once free positions outnumber live ones.
        Raises ``ValueError`` if the plan does not hold the member.
        """
        self._thaw()
        key = (u, v, is_fd)
        position = self._position_of.get(key)
        if position is None:
            raise ValueError("the plan does not hold this member")
        self._close(position, key)
        if is_fd:
            self.fd_total -= 1
        else:
            self.mvd_total -= 1
        self._masks = None
        live = self.live_mask.bit_count()
        return len(self.deps) - live <= live

    def _thaw(self) -> None:
        if self._position_of is not None:
            return
        if len(self) != self.sigma_size:
            raise ValueError(
                "a plan that folded duplicates cannot be edited: "
                "compile Σ as a set")
        for name in _PER_POSITION + _PER_BIT:
            setattr(self, name, list(getattr(self, name)))
        self.origin = None
        self._position_of = {key: position
                             for position, key in enumerate(self.deps)
                             if key is not None}

    def _free_position(self, is_fd: bool) -> int:
        live = self.live_mask
        if not is_fd:
            return max(live.bit_length(), self.fd_count)
        fd_region = (1 << self.fd_count) - 1
        fds = live & fd_region
        position = fds.bit_length()
        mvds = live & ~fd_region
        if mvds and (mvds & -mvds).bit_length() <= position + 1:
            # The first live MVD holds the FD's place: make room for
            # this FD and as many again as are live.
            self._shift(position, max(1, fds.bit_count()))
        self.fd_count = max(self.fd_count, position + 1)
        return position

    def _shift(self, start: int, by: int) -> None:
        """Move every position from ``start`` up by ``by`` places."""
        for name in _PER_POSITION:
            getattr(self, name)[start:start] = [None] * by
        low = (1 << start) - 1
        for name in _PER_BIT:
            setattr(self, name, [mask & low | (mask & ~low) << by
                                 for mask in getattr(self, name)])
        self.live_mask = self.live_mask & low | (self.live_mask & ~low) << by
        self._position_of = {key: position if position < start
                             else position + by
                             for key, position in self._position_of.items()}

    def _open(self, position: int, key: tuple[int, int, bool]) -> None:
        missing = position + 1 - len(self.deps)
        if missing > 0:
            for name in _PER_POSITION:
                getattr(self, name).extend([None] * missing)
        u, v, is_fd = key
        self.deps[position] = key
        (self.rhs_tilde[position],
         self.rhs_overlap[position]) = _dep_constants(self.encoding, v, is_fd)
        bit = 1 << position
        _index_position(bit, u, v, self.requeue_masks, self.lhs_index,
                        self.rhs_index)
        self.live_mask |= bit
        self._position_of[key] = position

    def _close(self, position: int, key: tuple[int, int, bool]) -> None:
        keep = ~(1 << position)
        u, v, _is_fd = key
        for table, mask in ((self.requeue_masks, u | v),
                            (self.lhs_index, u), (self.rhs_index, v)):
            for i in iter_bits(mask):
                table[i] &= keep
        self.live_mask &= keep
        del self._position_of[key]
        for name in _PER_POSITION:
            getattr(self, name)[position] = None

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(|Σ|={self.sigma_size}, folded={len(self)}, "
            f"fds={self.fd_total}, mvds={self.mvd_total}, "
            f"size={self.encoding.size})"
        )


def _index_position(bit: int, u: int, v: int, requeue_masks: list,
                    lhs_index: list, rhs_index: list) -> None:
    """OR a position's ``bit`` into the per-bit tables of ``u`` and ``v``."""
    for i in iter_bits(u | v):
        requeue_masks[i] |= bit
    for i in iter_bits(u):
        lhs_index[i] |= bit
    for i in iter_bits(v):
        rhs_index[i] |= bit


def _dep_constants(encoding: BasisEncoding, v_mask: int, is_fd: bool):
    """The Ū = 0 firing constants for one dependency."""
    v_tilde = encoding.pseudo_difference(v_mask, 0)
    if is_fd:
        return (v_tilde, None)
    return (v_tilde, v_tilde & encoding.complement(v_tilde))


def compile_plan(encoding: BasisEncoding,
                 fd_masks: Sequence[tuple[int, int]],
                 mvd_masks: Sequence[tuple[int, int]],
                 *, reuse: CompiledPlan | None = None) -> CompiledPlan:
    """Compile ``(encoding, Σ)`` mask tables into a :class:`CompiledPlan`.

    ``reuse`` makes recompilation incremental: per-dependency constants
    are carried over from a previous plan for every ``(u, v, kind)``
    that survives the edit, so a recompile only derives constants for
    the dependencies it actually changed (the index arrays are rebuilt
    in ``O(|Σ| · popcount)``).  A :class:`~repro.core.session.Session`
    compiles once and then edits its plan in place (:meth:`CompiledPlan.add`,
    :meth:`CompiledPlan.retract`); it recompiles only when the plan asks.
    Emits a ``plan.compile`` span and a ``plan.compiles`` counter when
    an observer is installed.
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
    seen: set[tuple[int, int, bool]] = set()
    fd_count = 0

    pairs = [(u, v, True) for (u, v) in fd_masks]
    pairs += [(u, v, False) for (u, v) in mvd_masks]
    for index, key in enumerate(pairs):
        if key not in seen:
            seen.add(key)
            deps.append(key)
            origin.append(index)
            if key[2]:
                fd_count += 1

    requeue_masks = [0] * encoding.size
    lhs_index = [0] * encoding.size
    rhs_index = [0] * encoding.size
    for position, (u, v, _is_fd) in enumerate(deps):
        _index_position(1 << position, u, v, requeue_masks, lhs_index,
                        rhs_index)

    rhs_tilde: list[int] = []
    rhs_overlap: list[int | None] = []
    for key in deps:
        constants = memo.get(key)
        if constants is None:
            constants = _dep_constants(encoding, key[1], key[2])
        v_tilde, overlap = constants
        rhs_tilde.append(v_tilde)
        rhs_overlap.append(overlap)

    return CompiledPlan(
        encoding, tuple(deps), fd_count, len(fd_masks), len(mvd_masks),
        tuple(origin), tuple(requeue_masks),
        tuple(lhs_index), tuple(rhs_index), (1 << len(deps)) - 1,
        tuple(rhs_tilde), tuple(rhs_overlap),
        masks=(tuple((u, v) for u, v in fd_masks),
               tuple((u, v) for u, v in mvd_masks)),
    )


class PlanCacheInfo(NamedTuple):
    """Counters of one :class:`ClosureIntervalCache`."""

    interval_hits: int
    misses: int
    entries: int


class ClosureIntervalCache:
    """Bounded ``x_mask → closure_mask`` memo with interval answering.

    :meth:`lookup` scans for a cached ``X'`` with ``X' ≤ X ≤ X'⁺`` —
    which forces ``X⁺ = X'⁺`` by monotonicity + idempotence of the
    closure operator (module doc).  The owner stores only proper
    intervals ``X' < X'⁺``: a closed ``X'`` could answer ``X = X'``
    alone, which the owner's own result cache answers first.  Entries
    must all be fixpoints of the *current* Σ: the owner clears the cache
    on every Σ edit (closures grow on ``add`` and shrink on
    ``retract``, so stale entries are wrong in both directions).
    Counters survive :meth:`clear` (they describe the session's lifetime
    traffic) and reset with :meth:`reset`.

    Eviction is FIFO, bounded by ``maxsize`` entries; the interval scan
    is ``O(entries)`` per miss, so the bound also caps the scan cost.
    """

    __slots__ = ("maxsize", "interval_hits", "misses", "_entries")

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.interval_hits = 0
        self.misses = 0
        self._entries: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, x_mask: int) -> int | None:
        """``X⁺`` if the cache can answer ``x_mask``, else ``None``."""
        for x_prime, x_prime_plus in self._entries.items():
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
        self.interval_hits = 0
        self.misses = 0

    def info(self) -> PlanCacheInfo:
        return PlanCacheInfo(self.interval_hits, self.misses,
                             len(self._entries))

    def __repr__(self) -> str:
        return (
            f"ClosureIntervalCache(entries={len(self._entries)}, "
            f"interval_hits={self.interval_hits}, misses={self.misses})"
        )
