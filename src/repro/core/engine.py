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
``Ū = 0`` constants that skip the RHS derivations entirely once a
left-hand side is covered.  The plan is the kernel's only requeue path:
callers that hold none go through the ``worklist`` engine, which
compiles one on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

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
    warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
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
        the encoding, the folded dependency arrays, the inverted requeue
        index and the ``Ū = 0`` constants all come from it.
    fired:
        Optional caller-supplied set collecting **provenance**: the slot
        (for a freshly compiled plan, the index in the FDs-then-MVDs
        firing order), through the plan's ``origin`` remap, of every
        dependency whose firing *changed* ``(X_new, DB_new)``.  A
        dependency absent from ``fired`` only ever fired as a no-op, so
        removing it from Σ replays the identical run — the invariant
        :class:`repro.core.session.Session` uses for cache retention.
    warm_start:
        Optional ``(x_plus, blocks, pending)`` resume state.  Instead of
        initialising from ``X``, the kernel starts at the supplied
        fixpoint of a *smaller* Σ (same left-hand side ``x_mask``) and
        seeds the worklist with only the ``pending`` dependencies — the
        ones added since that fixpoint was computed, as slots (mapped
        through the plan's ``folded_of`` and queued in firing order).
        Because the algorithm is a monotone fixpoint computation and the
        old dependencies cannot fire productively at their own fixpoint
        (they are re-queued if the new ones dirty their inputs), the
        result is the same ``(X⁺, DB)`` as a cold run over the full Σ.
    """
    encoding = plan.encoding
    pseudo_difference = encoding.pseudo_difference
    double_complement = encoding.double_complement
    possessed = encoding.possessed
    below = encoding.below

    # Folded arrays and compiled indexes (module doc, plan.py).
    deps = plan.deps
    origin = plan.origin
    requeue_masks = plan.requeue_masks
    rhs_tilde = plan.rhs_tilde
    rhs_singletons = plan.rhs_singletons
    rhs_suspects = plan.rhs_suspects
    rhs_overlap = plan.rhs_overlap

    x_new = x_mask

    # DB_new := MaxB(X^CC) ∪ {X^C}, each block stored with its possessed
    # mask.  A basis bit can be possessed by several blocks at once
    # (blocks are down-closed and overlap in lower elements; a shared bit
    # whose whole up-set lies inside each of them is possessed by all),
    # and DB_new stays small (a median of 13 blocks at |N| = 64), so the
    # owners of a set of bits are found by one AND per block.  The
    # aggregate ``owned`` mask answers the common all-or-nothing cases
    # of ``Ū`` with one AND before any scan.
    db: dict[int, int] = {}  # block -> its possessed mask
    owned = 0  # union of the possessed masks of all blocks

    def add_block(w: int) -> int:
        """Insert block ``w``; returns its possessed mask."""
        nonlocal owned
        p = db[w] = possessed(w)
        owned |= p
        return p

    def remove_block(w: int) -> int:
        """Remove block ``w``; returns its possessed mask."""
        nonlocal owned
        p = db.pop(w)
        owned = 0
        for q in db.values():
            owned |= q
        return p

    if warm_start is None:
        for index in iter_bits(encoding.maximal_of(double_complement(x_mask))):
            add_block(below[index])
        x_complement = encoding.complement(x_mask)
        if x_complement:
            add_block(x_complement)
    else:
        x_new = warm_start[0]
        for w in warm_start[1]:
            add_block(w)

    # Blocks that are possibly *not* CC-closed.  The naive FD step maps
    # every block through ``(W ∸ Ṽ)^CC``, which is the identity on
    # CC-closed blocks untouched by ``Ṽ`` but *normalises* the others —
    # and both the initial blocks (``X^C``, ``MaxB(X^CC)`` singletons)
    # and the singletons an FD rewrite adds can fail to be CC-closed
    # (their generator need not be maximal in ``N``).  To stay
    # bit-identical, the next FD firing must rewrite these suspects even
    # when no possessed bit of theirs meets ``Ṽ``.
    suspects: set[int] = {w for w in db if double_complement(w) != w}

    def u_bar(u_mask: int) -> int:
        candidates = u_mask & ~x_new & owned
        if not candidates:
            return 0
        result = 0
        blocks = 0
        for w, p in db.items():
            if p & candidates:
                result |= w
                blocks += 1
        if stats is not None:
            stats.u_bar_lookups += 1
            stats.u_bar_blocks += blocks
        return result

    # Worklist: initially every live folded position, in order (or, on
    # warm starts, only the pending ones — slots mapped onto folded
    # positions, in firing order); generations mirror the naive REPEAT
    # passes for reporting purposes.  Tombstoned positions of an edited
    # plan are never queued: they are outside ``live_mask`` and have no
    # bit in any requeue mask.
    if warm_start is None:
        queued_mask = plan.live_mask  # int bitmask over folded positions
        if queued_mask == (1 << len(deps)) - 1:
            queue: deque[int] = deque(range(len(deps)))
        else:
            queue = deque(iter_bits(queued_mask))
    else:
        folded_of = plan.folded_of
        queued_mask = 0
        for index in warm_start[2]:
            queued_mask |= 1 << folded_of[index]
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
            # its own survivor); the rewrite is computed as a set diff so
            # a block that merely round-trips (removed and re-created,
            # e.g. a singleton of Ṽ's own maximal) produces no dirt.
            touched = {w for w, p in db.items() if p & v_tilde}
            if suspects:
                touched.update(w for w in suspects if w in db)
                suspects.clear()
            replacement: set[int] = set()
            for w in touched:
                survivor = double_complement(pseudo_difference(w, v_tilde))
                if survivor:
                    replacement.add(survivor)
            if zero_u:
                replacement.update(rhs_singletons[position])
                suspects.update(rhs_suspects[position])
            else:
                for index in iter_bits(
                    encoding.maximal_of(double_complement(v_tilde))
                ):
                    singleton = below[index]
                    replacement.add(singleton)
                    if double_complement(singleton) != singleton:
                        suspects.add(singleton)
            removed = touched - replacement
            added_blocks = replacement - db.keys()
            if removed or added_blocks:
                rewrites += 1
                for w in removed:
                    dirty |= remove_block(w)
                for w in added_blocks:
                    dirty |= add_block(w)
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
            # possesses a bit of Ṽ, so the scan locates them all.
            straddling = [w for w, p in db.items() if p & v_tilde]
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

        if changed and fired is not None:
            fired.add(origin[position])
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
            for other in iter_bits(wake):
                queue.append(other)
                requeues += 1

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

    return x_new, frozenset(db), passes
