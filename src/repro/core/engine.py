"""Worklist-driven kernel for Algorithm 5.1 — the performance layer.

The naive transcription in :mod:`repro.core.closure` mirrors the paper's
REPEAT-UNTIL shape exactly: every pass re-fires *all* of Σ and every
``Ū`` computation re-scans *all* of ``DB_new``.  That is the right shape
for reproducing Figures 3–4 step by step, but it wastes exactly the
structure that change-driven implementations of Beeri-style membership
algorithms exploit:

* **Possessed masks per block.**  ``Ū`` asks which blocks possess a
  basis attribute of ``U`` that is not yet in ``X_new``.  Possession
  only changes when a block changes, so the kernel stores each block
  with its possessed mask and answers ``Ū`` with one AND per block
  instead of recomputing possession on every ``DB_new`` scan.

* **Dirty-set worklist.**  A dependency's firing is a deterministic
  function of ``(X_new, DB_new)``; re-firing it can only produce a new
  state if, since its last firing, either ``X_new`` gained bits of its
  left-hand side (shrinking ``Ū``'s candidates), or a block owning such
  bits changed (changing ``Ū``), or a block straddling its last ``Ṽ``
  appeared (re-violating the split/normalisation condition — such a
  block always possesses a bit of ``SubB(V)``).  All three are covered
  by marking, on every state change, the added closure bits and the
  possessed bits of every removed/added block as *dirty*, and re-queuing
  exactly the dependencies whose ``SubB(U) ∪ SubB(V)`` meets the dirty
  bits.  An empty worklist is therefore equivalent to the pseudocode's
  full no-change pass, and the kernel terminates in the same fixpoint —
  bit-identical ``(X⁺, DB)`` — while firing each dependency only when
  its inputs may actually have changed.

* **Maximal singletons decided by the encoding.**  Most of ``DB_new``
  is ``MaxB`` singletons ``SubB(m)`` (the mask ``below[m]`` of a
  maximal bit ``m``), and their fate under a firing follows from §6's
  set representation alone.  For every encoding, ``m ∈ MaxB(N)`` and
  every down-closed ``S`` (``Ṽ`` always is one):

  - **(L1)** ``below[m]^CC = below[m]``: ``m`` is possessed by its own
    down-set;
  - **(L2)** ``(below[m] ∸ S)^CC`` is ``λ`` if ``m ∈ S``, else
    ``below[m]``;
  - **(L3)** ``(S ⊓ below[m])^CC`` is ``below[m]`` if ``m ∈ S``, else
    ``λ`` (every bit under ``m`` has ``m`` above it);
  - **(L4)** ``MaxB(S^CC) = S ∩ MaxB(N)`` (this one holds for any mask
    ``S``).

  So an FD firing leaves every singleton in place (it survives, or is
  removed and re-added by ``MaxB(Ṽ^CC)``: no net change, no dirt) and
  adds the singletons of ``Ṽ & maximal`` not yet present; an MVD never
  splits one.  The kernel keeps the singletons as one mask of maximal
  bits and runs only the other blocks (``X^C``, pieces of rewrites and
  splits, suspects) through the general rewrite and split code.  ``Ū``
  finds the singletons owning a candidate bit through the maximal bits
  above it and scans only the other blocks, counting every owner, so
  the counters and ``(X⁺, DB, passes)`` are exactly those of the
  general code.

* **No-ops dismissed in bulk.**  Most firings of a run change nothing,
  and a §6 identity finds most of them without firing them.  Call a
  block *outer* when it possesses a bit outside ``X_new``.  In every
  state reached from an element ``X`` with ``X^C ≠ λ``:

  - **(L6)** every dependency with ``Ū ⊇ X_new^C`` has ``Ū =
    X_new^C`` and fires as a no-op; and ``Ū ⊇ X_new^C`` holds iff
    ``U`` meets the possession outside ``X_new`` of every outer block.

  *Proof.*  (i) An invariant: ``X_new`` is an element; every block is
  CC-closed; every block other than the singletons ``below[m]`` with
  ``m ∈ X_new`` lies under ``X_new^C``; each maximal bit lies in at
  most one block, each one outside ``X_new`` in exactly one; and each
  one in ``X_new`` has its singleton in ``DB``.  It holds at the
  start, where ``DB`` is the singletons of ``X ∩ MaxB(N)`` and
  ``X^C``, a complement.  Singletons map to themselves under every
  firing (L2, L3), so take a block ``W ≤ X_new^C``.  An FD makes
  ``X_new ⊔ Ṽ``, whose complement is ``X_new^C ∸ Ṽ``, and maps ``W``
  to ``(W ∸ Ṽ)^CC ≤ W ∸ Ṽ ≤ X_new^C ∸ Ṽ``; its new singletons are
  those of ``Ṽ ∩ MaxB(N) ≤ X_new ⊔ Ṽ``.  An MVD makes ``X_new ⊔ O``
  with ``O = Ṽ ⊓ Ṽ^C``, which holds no maximal bit (one in ``Ṽ`` is
  outside ``Ṽ^C``) and whose complement is ``X_new^C ∸ O``, and
  splits ``W`` into ``(W ∸ Ṽ)^CC ≤ W ∸ O ≤ X_new^C ∸ O`` and ``Z =
  (Ṽ ⊓ W)^CC``.  ``Z`` is the down-closure of its possessed bits, and
  each of them has every bit above it in ``Z ≤ Ṽ``, so lies outside
  ``Ṽ^C ⊇ O``; hence ``Z ≤ X_new^C ∸ O``.  A maximal bit of ``W`` goes
  to exactly one piece, or, under an FD, into ``X_new`` and its own
  singleton.  (ii) The blocks of ``Ū`` own a bit of ``U`` outside
  ``X_new``.  A singleton of ``X_new`` possesses only bits of
  ``X_new``, so by (i) every such block lies under ``X_new^C``, and
  ``Ū ⊇ X_new^C`` forces ``Ū = X_new^C``.  Then ``Ṽ = V ∸ X_new^C ≤
  X_new^CC ≤ X_new``, so ``X_new`` gains nothing.  (iii) Every bit of
  ``X_new^CC`` lies under a bit outside ``X_new^C``, which no block
  ``W ≤ X_new^C`` holds, so no such block possesses a bit of
  ``X_new^CC ⊇ Ṽ``: an FD touches no block, and an MVD finds none
  straddling ``Ṽ``.  The FD's new singletons are the maximal bits of
  ``Ṽ``, which lie in ``X_new`` and are in ``DB`` already, and the
  MVD's overlap is ``≤ Ṽ ≤ X_new``.  The firing changes nothing.
  (iv) ``X_new^C`` is the down-closure of the maximal bits outside
  ``X_new``.  By (i) each lies in exactly one block, an outer one, and
  every outer block lies under ``X_new^C``, so ``X_new^C`` is the union
  of the outer blocks, and ``Ū ⊇ X_new^C`` iff every outer block owns
  a bit of ``U`` outside ``X_new``.  ∎

  L5 is L6 in the initial state, where the one outer block is ``X^C``
  and possesses every bit outside ``X``: the cold start dismisses
  every dependency with ``U ≰ X``.  The gate is the element start: the
  ``X^C`` of a mask that is not down-closed can fail to be CC-closed,
  and (i) fails with it.

  So on every state change (and at the start) the kernel ORs the plan's
  ``lhs_index`` over each outer block's possession outside ``X_new``
  (once per distinct such set in a run), and ANDs the results into the
  state's *dismissable* positions.  A popped position in that set is
  not fired; the dismissed firings of a state are accounted in bulk
  when the state next changes, or at the end.  Each is one firing, one
  ``Ū`` lookup of as many blocks as there are outer blocks, and a
  skipped firing when ``V ≤ X_new^C``, i.e. when ``V`` holds no bit of
  ``possessed(X_new)``, an up-set that only grows with ``X_new``: the
  run ORs ``rhs_index`` over each of its bits once.  Only a state change
  wakes a position, so a position leaves the queue at most once per
  state.  At the cold start the dismissed positions are not queued at
  all.  When a firing at position ``p`` first changes the state, the
  dismissed positions below ``p`` are generation 1's dismissed firings
  so far, and generation 1 goes on with every live position above
  ``p``, in order: the queue a full generation 1 would have there.  So
  ``(X⁺, DB, passes)``, the provenance and every :class:`KernelStats`
  counter are those of firing each dependency one by one, while
  Theorem 6.4's ``|Σ|`` factor per pass shrinks to the dependencies
  that can still change the state.

The REPEAT structure survives as *generations*: the initial queue (all
of Σ, FDs first — the paper's order) is generation 1, dependencies
re-queued during generation ``g`` run in generation ``g + 1``.  The
generation count is reported as ``passes`` for API compatibility; like
the naive pass count it is bounded by the number of state changes
(Theorem 6.3's termination argument).

The kernel runs off a :class:`repro.core.plan.CompiledPlan`, which
carries all of its per-Σ set-up: the folded dependency arrays (exact
duplicates fire once, ``fired`` provenance is remapped to the plan's
member slots through its ``origin``), the *inverted* requeue index
(basis bit → bitmask of dependency positions, so waking the dependents
of a dirty event costs ``O(popcount(dirty))`` lookups plus one walk of
exactly the woken positions, in ascending order), and per-dependency
``Ū = 0`` constants (``Ṽ = V ∸ λ`` and an MVD's overlap ``Ṽ ⊓ Ṽ^C``)
that skip the RHS derivations once a left-hand side is covered.  The
plan is the kernel's only requeue path: callers that hold none go
through the ``worklist`` engine, which compiles one on demand.
"""

from __future__ import annotations

from collections import deque

from ..attributes.encoding import iter_bits
from .plan import CompiledPlan

__all__ = ["KernelStats", "closure_of_masks_fast"]


class KernelStats:
    """Opt-in instrumentation counters for the closure kernels.

    One instance can be threaded through many runs (e.g. a Reasoner's
    lifetime); counters accumulate until :meth:`reset`.
    """

    __slots__ = (
        "runs",
        "passes",
        "firings",
        "requeues",
        "requeue_scanned",
        "skipped_firings",
        "u_bar_lookups",
        "u_bar_blocks",
        "block_splits",
        "db_rewrites",
        "dirty_bits",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.passes = 0
        self.firings = 0
        self.requeues = 0
        self.requeue_scanned = 0
        self.skipped_firings = 0
        self.u_bar_lookups = 0
        self.u_bar_blocks = 0
        self.block_splits = 0
        self.db_rewrites = 0
        self.dirty_bits = 0

    def merge(self, other: "KernelStats") -> None:
        """Fold another instance's counters into this one.

        The observability layer runs each closure with a private
        per-run instance (for span attribution) and merges it into the
        caller's accumulator afterwards, so both views count each event
        exactly once.
        """
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"KernelStats({inner})"


def closure_of_masks_fast(
    plan: CompiledPlan,
    x_mask: int,
    *,
    stats: KernelStats | None = None,
    fired: set[int] | None = None,
) -> tuple[int, frozenset[int], int]:
    """Worklist kernel for Algorithm 5.1; returns ``(X⁺, DB, passes)``.

    Computes the same ``(X⁺, DB)`` as the mask-level naive kernel
    :func:`repro.core.closure.closure_of_masks` over the Σ compiled into
    ``plan`` (no trace support — tracing wants the pass-by-pass shape).
    Callers without a plan go through the ``worklist`` engine or
    :func:`repro.core.closure.compute_closure`, which compile one.

    Parameters
    ----------
    plan:
        The :class:`repro.core.plan.CompiledPlan` of ``(encoding, Σ)``:
        the encoding, the folded dependency arrays, the inverted indexes
        and the ``Ū = 0`` constants all come from it.
    fired:
        Optional caller-supplied set collecting **provenance**: the slot
        (for a freshly compiled plan, the index in the FDs-then-MVDs
        firing order), through the plan's ``origin`` remap, of every
        dependency whose firing *changed* ``(X_new, DB_new)``.  A
        dependency absent from ``fired`` only ever fired as a no-op, so
        removing it from Σ replays the identical run — the invariant
        :class:`repro.core.session.Session` uses for cache retention.
    """
    encoding = plan.encoding
    pseudo_difference = encoding.pseudo_difference
    double_complement = encoding.double_complement
    possessed = encoding.possessed
    possessed_below = encoding.possessed_below()
    down_close = encoding.down_close
    below = encoding.below
    above = encoding.above
    maximal = encoding.maximal
    full = encoding.full

    # Folded arrays and compiled indexes (module doc, plan.py).
    deps = plan.deps
    origin = plan.origin
    requeue_masks = plan.requeue_masks
    rhs_tilde = plan.rhs_tilde
    rhs_overlap = plan.rhs_overlap

    x_new = x_mask

    # DB_new, split by shape.  ``singles`` is the mask of the maximal
    # bits ``m`` whose singleton block ``below[m]`` is in DB_new.  Their
    # possessed masks are pairwise disjoint (``below[m]`` possesses a bit
    # iff ``m`` is the only maximal bit above it), ``single_owned`` is
    # their union, and singletons are never removed (L2, L3).  Every
    # other block is kept in ``others`` with its possessed mask: a bit
    # can be possessed by several of them at once, and they are few
    # (``X^C`` and the pieces of rewrites and splits), so the owners of
    # a set of bits are found by one AND per block.  The aggregate
    # ``owned`` mask answers the common all-or-nothing cases of ``Ū``
    # with one AND before any scan.
    singles = 0
    single_owned = 0
    others: dict[int, int] = {}  # block -> its possessed mask
    owned = 0  # union of the possessed masks of all blocks

    def single_of(w: int) -> int:
        """``m`` if ``w`` is the singleton ``below[m]``, else -1."""
        top = w & maximal
        if top and not top & (top - 1) and below[top.bit_length() - 1] == w:
            return top.bit_length() - 1
        return -1

    def add_single(index: int) -> int:
        """Insert the singleton ``below[index]``; returns its possessed mask."""
        nonlocal singles, single_owned, owned
        p = possessed_below[index]
        singles |= 1 << index
        single_owned |= p
        owned |= p
        return p

    def add_block(w: int) -> int:
        """Insert block ``w``; returns its possessed mask."""
        nonlocal owned
        index = single_of(w)
        if index >= 0:
            return add_single(index)
        p = others[w] = possessed(w)
        owned |= p
        return p

    def remove_block(w: int) -> int:
        """Remove the non-singleton block ``w``; returns its possessed mask."""
        nonlocal owned
        p = others.pop(w)
        owned = single_owned
        for q in others.values():
            owned |= q
        return p

    def in_db(w: int) -> bool:
        index = single_of(w)
        if index < 0:
            return w in others
        return bool(singles >> index & 1)

    # DB_new := MaxB(X^CC) ∪ {X^C}, and MaxB(X^CC) = X ∩ MaxB(N) (L4).
    for index in iter_bits(x_mask & maximal):
        add_single(index)
    x_complement = encoding.complement(x_mask)
    if x_complement:
        add_block(x_complement)

    # Blocks that are possibly *not* CC-closed.  The naive FD step maps
    # every block through ``(W ∸ Ṽ)^CC``, which is the identity on
    # CC-closed blocks untouched by ``Ṽ`` but *normalises* the others.
    # Singletons are CC-closed (L1), and so is ``X^C`` for an element
    # ``X`` and every block a firing creates (each is a double
    # complement); only the ``X^C`` of a mask that is not down-closed
    # can fail to be.  To stay bit-identical, the next FD firing must
    # rewrite these suspects even when no possessed bit of theirs meets
    # ``Ṽ``.  The test computes ``W^CC`` without the memo: it runs once
    # per block per run, and a cold run's ``X^C`` is never asked again.
    suspects: set[int] = {w for w in others
                          if down_close(possessed(w)) != w}

    def u_bar(u_mask: int) -> int:
        candidates = u_mask & ~x_new & owned
        if not candidates:
            return 0
        result = 0
        blocks = 0
        hit = candidates & single_owned
        if hit:
            # The singletons owning a bit of ``hit``: each such bit has
            # exactly one maximal bit above it.
            tops = 0
            for i in iter_bits(hit):
                tops |= above[i]
            tops &= maximal
            result = down_close(tops)
            blocks = tops.bit_count()
        for w, p in others.items():
            if p & candidates:
                result |= w
                blocks += 1
        if stats is not None:
            stats.u_bar_lookups += 1
            stats.u_bar_blocks += blocks
        return result

    # L6 (module doc): in the current state, the positions whose firing
    # is a no-op with Ū = X_new^C, the number of blocks in that Ū, and
    # X_new^C itself (the union of those blocks).  Only a run from an
    # element keeps the invariant L6 rests on.
    lhs_index = plan.lhs_index
    rhs_index = plan.rhs_index
    element = x_complement != 0 and down_close(x_mask) == x_mask
    no_ops = outer = state_complement = 0
    # A block's possession outside X_new -> the positions whose U meets
    # it.  Most blocks outlive a state change unchanged, so each one's
    # positions are ORed once per run.
    meeting: dict[int, int] = {}
    # The positions whose V meets possessed(X_new), and that possession.
    # It only grows with X_new, so each of its bits is ORed once per run.
    reaching = reached = 0

    def dismissable() -> None:
        """Recompute ``no_ops``, ``outer`` and ``state_complement``: the
        AND, over the blocks owning a bit outside ``X_new``, of the
        positions whose ``U`` meets that block's possession there."""
        nonlocal no_ops, outer, state_complement
        outside = full & ~x_new
        result = outside and -1     # X_new = N dismisses nothing
        union = 0
        blocks = list(others.items())
        if singles & outside:
            blocks += [(below[index], possessed_below[index])
                       for index in iter_bits(singles & outside)]
        for w, p in blocks:
            bits = p & outside
            hits = meeting.get(bits)
            if hits is None:
                hits = 0
                for i in iter_bits(bits):
                    hits |= lhs_index[i]
                meeting[bits] = hits
            result &= hits
            union |= w
        no_ops, outer, state_complement = result, len(blocks), union

    def account(dropped: int) -> None:
        """Count the dismissed firings ``dropped`` of the current state
        into ``stats``: each is one firing and one Ū lookup of ``outer``
        blocks, and is skipped when V holds no bit outside X_new^C."""
        nonlocal reaching, reached
        count = dropped.bit_count()
        stats.firings += count
        stats.u_bar_lookups += count
        stats.u_bar_blocks += count * outer
        possession = full & ~state_complement
        for i in iter_bits(possession & ~reached):
            reaching |= rhs_index[i]
        reached = possession
        stats.skipped_firings += (dropped & ~reaching).bit_count()

    # Worklist: initially every live folded position, in order;
    # generations mirror the naive REPEAT passes for reporting purposes.
    # Tombstoned positions of an edited plan are never queued: they are
    # outside ``live_mask`` and have no bit in any requeue mask.  A cold
    # start leaves its dismissed positions out of the queue until the
    # first state change (L5); ``dropped`` holds the dismissed firings
    # of the current state, accounted when the state changes.
    if element:
        dismissable()
    dropped = no_ops
    cold = dropped != 0
    queued_mask = plan.live_mask & ~dropped  # over folded positions
    if queued_mask == (1 << len(deps)) - 1:
        queue: deque[int] = deque(range(len(deps)))
    else:
        queue = deque(iter_bits(queued_mask))
    passes = 1
    firings = 0
    requeues = 0
    scanned = 0
    splits = 0
    rewrites = 0
    skipped = 0
    dirty_total = 0
    track_dirty = stats is not None
    generation_left = len(queue)  # firings left in the current generation

    while queue:
        if generation_left == 0:
            passes += 1
            generation_left = len(queue)
        generation_left -= 1

        position = queue.popleft()
        queued_mask &= ~(1 << position)
        if no_ops >> position & 1:
            dropped |= 1 << position
            continue
        u_mask, v_mask, is_fd = deps[position]
        firings += 1

        ub = u_bar(u_mask)
        # Ū = λ is the steady state once X_new covers the LHS; the plan
        # carries Ṽ = V ∸ λ (and everything derived from it) precomputed.
        zero_u = not ub
        v_tilde = rhs_tilde[position] if zero_u else pseudo_difference(v_mask, ub)
        if not v_tilde:
            skipped += 1
            continue

        dirty = 0
        changed = False
        if is_fd:
            dirty |= v_tilde & ~x_new
            x_new |= v_tilde
            # DB_new := {(W ∸ Ṽ)^CC ≠ λ} ∪ MaxB(Ṽ^CC) singletons.  Only
            # blocks owning a bit of Ṽ can change (an untouched block is
            # CC-closed with all its possessed bits outside Ṽ, so it is
            # its own survivor).  A singleton is its own survivor or is
            # removed and re-added (L2), so only the other blocks are
            # rewritten, and the singletons to add are Ṽ's maximal bits
            # not yet in DB_new (L4).  The rewrite is a set diff, so a
            # block that merely round-trips produces no dirt.
            touched = {w for w, p in others.items() if p & v_tilde}
            if suspects:
                touched.update(w for w in suspects if w in others)
                suspects.clear()
            fresh = v_tilde & maximal & ~singles
            removed = added = ()
            if touched:
                replacement: set[int] = set()
                for w in touched:
                    survivor = double_complement(pseudo_difference(w, v_tilde))
                    if survivor:
                        replacement.add(survivor)
                removed = touched - replacement
                added = [w for w in replacement if not in_db(w)]
            if removed or added or fresh:
                rewrites += 1
                for w in removed:
                    dirty |= remove_block(w)
                for w in added:
                    dirty |= add_block(w)
                for index in iter_bits(fresh):
                    dirty |= add_single(index)
                changed = True
            if dirty:
                changed = True
        else:
            # X_new := X_new ⊔ (Ṽ ⊓ Ṽ^C) — the mixed meet rule.
            overlap = (
                rhs_overlap[position] if zero_u
                else v_tilde & encoding.complement(v_tilde)
            )
            dirty |= overlap & ~x_new
            x_new |= overlap
            # Split exactly the blocks straddling Ṽ; a straddling block
            # possesses a bit of Ṽ, so the scan locates them all.  A
            # singleton never splits (L3), so only the others are seen.
            straddling = [w for w, p in others.items() if p & v_tilde]
            for w in straddling:
                inside = double_complement(v_tilde & w)
                if inside and inside != w:
                    splits += 1
                    changed = True
                    dirty |= remove_block(w)
                    dirty |= add_block(inside)
                    outside = double_complement(pseudo_difference(w, v_tilde))
                    if outside:
                        dirty |= add_block(outside)
            if dirty:
                changed = True

        if changed:
            if fired is not None:
                fired.add(origin[position])
            if cold:
                # L5's cold start ends.  The dismissed firings below this
                # position were due before it; the rest of generation 1
                # is every live position above it, as in a full queue.
                cold = False
                dropped &= (1 << position) - 1
                queued_mask = plan.live_mask >> position + 1 << position + 1
                queue = deque(iter_bits(queued_mask))
                generation_left = len(queue)
            if dropped:
                if stats is not None:
                    account(dropped)
                dropped = 0
            if element:
                dismissable()
        if dirty:
            if track_dirty:
                dirty_total += dirty.bit_count()
            # Inverted index: OR the position-masks of the dirty bits,
            # drop the already-queued, wake the rest in ascending order.
            wake = 0
            for i in iter_bits(dirty):
                wake |= requeue_masks[i]
            scanned += wake.bit_count()
            wake &= ~queued_mask
            queued_mask |= wake
            queue.extend(iter_bits(wake))
            requeues += wake.bit_count()

    if dropped and stats is not None:
        account(dropped)

    if stats is not None:
        stats.runs += 1
        stats.passes += passes
        stats.firings += firings
        stats.requeues += requeues
        stats.requeue_scanned += scanned
        stats.skipped_firings += skipped
        stats.block_splits += splits
        stats.db_rewrites += rewrites
        stats.dirty_bits += dirty_total

    blocks = list(others)
    blocks.extend(below[index] for index in iter_bits(singles))
    return x_new, frozenset(blocks), passes
