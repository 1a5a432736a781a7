"""Algorithm 5.1: attribute-set closure and dependency basis.

This module transcribes the paper's pseudocode block-for-block over the
bitmask basis encoding of :mod:`repro.attributes.encoding`::

    Input:  N ∈ NA, X ∈ Sub(N), set Σ of FDs and MVDs on N
    Output: X⁺_alg and DepB_alg(X)

    X_new  := X
    DB_new := MaxB(X^CC) ∪ {X^C}
    REPEAT
        X_old := X_new;  DB_old := DB_new
        FOR each U → V ∈ Σ DO                          -- FD loop
            Ū := ⊔{W ∈ DB_new | ∃U'. U' possessed by W, U' ≰ X_new, U' ≤ U}
            Ṽ := V ∸ Ū
            IF Ṽ ≠ λ THEN
                X_new  := X_new ⊔ Ṽ
                DB_new := {(W ∸ Ṽ)^CC | W ∈ DB_new, (W ∸ Ṽ)^CC ≠ λ}
                          ∪ MaxB(Ṽ^CC)
        FOR each U ↠ V ∈ Σ DO                          -- MVD loop
            Ū, Ṽ as above
            IF Ṽ ≠ λ THEN
                X_new := X_new ⊔ (Ṽ ⊓ Ṽ^C)             -- mixed meet rule
                FOR each W ∈ DB_new DO
                    IF (Ṽ ⊓ W)^CC ∉ {λ, W} THEN
                        DB_new := (DB_new − {W}) ∪ {(Ṽ⊓W)^CC, (W∸Ṽ)^CC}
    UNTIL X_new = X_old AND DB_new = DB_old
    X⁺_alg        := X_new
    DepB_alg(X)   := SubB(X⁺_alg) ∪ DB_new

Everything is an ``int`` mask over ``SubB(N)``; a *block* of ``DB_new`` is
the (down-closed) mask of a join of maximal basis attributes.  In the FD
loop, blocks touched by ``Ṽ`` lose the corresponding maximal basis
attributes (``(W ∸ Ṽ)^CC``) and the right-hand side's maximal attributes
become *singleton* blocks (they are now functionally determined, hence
mutually independent).  In the MVD loop, blocks straddling ``Ṽ`` split
into the inside and outside parts, and the *non-maximal* overlap
``Ṽ ⊓ Ṽ^C`` (list lengths shared between a part and its complement) is
added to the closure — the operational face of the mixed meet rule.

Termination (Theorem 6.3): every state change refines the partition
``{MaxB(W) | W ∈ DB_new}`` of ``MaxB(N)`` or enlarges ``X_new``, so the
outer loop runs at most ``|SubB(N)|`` times; the overall complexity is
``O(|N|⁴ · |Σ|)`` (Theorem 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..attributes.encoding import BasisEncoding, iter_bits
from ..attributes.nested import NestedAttribute
from ..dependencies.dependency import Dependency, FunctionalDependency
from ..dependencies.sigma import DependencySet
from ..obs import get_observer
from .engine import KernelStats, closure_of_masks_fast
from .plan import CompiledPlan
from .trace import TraceRecorder

__all__ = [
    "ClosureResult",
    "compute_closure",
    "closure_of_masks",
    "closure_of_masks_instrumented",
]


@dataclass(frozen=True)
class ClosureResult:
    """The output ``(X⁺_alg, DepB_alg(X))`` of Algorithm 5.1.

    Attributes
    ----------
    encoding:
        The basis encoding of the ambient attribute ``N``.
    x_mask:
        The input ``X`` as a mask.
    closure_mask:
        ``X⁺`` as a mask.
    blocks:
        The final ``DB_new``: masks of the multi-valued blocks ``X^M``
        (joins of maximal basis attributes).
    passes:
        Number of REPEAT-UNTIL iterations executed (including the final
        no-change pass).
    fired:
        Optional **provenance**: the indices (in Σ's FDs-then-MVDs
        firing order, as Σ stood for the run) of the dependencies whose
        firing productively changed the state during the run.  ``None``
        when the kernel was not asked to record provenance.  A
        dependency outside ``fired`` only ever fired as a no-op, so the
        result is independent of its presence in Σ — the invariant behind
        :meth:`repro.core.session.Session.retract` cache retention.
    """

    encoding: BasisEncoding
    x_mask: int
    closure_mask: int
    blocks: frozenset[int]
    passes: int
    fired: frozenset[int] | None = None

    # -- decoded views ----------------------------------------------------

    @property
    def x(self) -> NestedAttribute:
        """The input ``X`` as an attribute."""
        return self.encoding.decode(self.x_mask)

    @property
    def closure(self) -> NestedAttribute:
        """The attribute-set closure ``X⁺`` as an attribute."""
        return self.encoding.decode(self.closure_mask)

    def dependency_basis_masks(self) -> frozenset[int]:
        """``DepB(X) = SubB(X⁺) ∪ X^M`` as element masks.

        Each basis attribute of ``X⁺`` contributes its principal ideal;
        duplicates between the two parts collapse (a block fully inside
        ``X⁺`` may coincide with a principal ideal).

        The frozenset is computed once and cached on the result: the 4NF
        checker, the decomposer and ``implies_mvd_rhs`` all re-query it
        for the same result object.
        """
        cached = self.__dict__.get("_depb_masks")
        if cached is not None:
            return cached
        members = set(self.blocks)
        for index in iter_bits(self.closure_mask):
            members.add(self.encoding.below[index])
        masks = frozenset(members)
        # Direct __dict__ store: the dataclass is frozen, but caching a
        # derived value does not change its identity or equality.
        self.__dict__["_depb_masks"] = masks
        return masks

    def dependency_basis(self) -> tuple[NestedAttribute, ...]:
        """The dependency basis as attributes, deterministically ordered."""
        masks = sorted(self.dependency_basis_masks())
        return tuple(self.encoding.decode(mask) for mask in masks)

    # -- membership tests (Proposition 4.10) -------------------------------

    def implies_fd_rhs(self, rhs_mask: int) -> bool:
        """``Σ ⊨ X → Y`` iff ``Y ≤ X⁺``."""
        return rhs_mask & ~self.closure_mask == 0

    def implies_mvd_rhs(self, rhs_mask: int) -> bool:
        """``Σ ⊨ X ↠ Y`` iff ``Y`` is a join of dependency-basis elements.

        Greedy check: the union of all basis elements lying below ``Y``
        must reproduce ``Y`` exactly.
        """
        union = 0
        for member in self.dependency_basis_masks():
            if member & ~rhs_mask == 0:
                union |= member
        return union == rhs_mask

    def describe(self) -> str:
        """Readable summary in paper notation."""
        encoding = self.encoding
        basis_lines = "; ".join(
            encoding.describe(mask) for mask in sorted(self.dependency_basis_masks())
        )
        return (
            f"X       = {encoding.describe(self.x_mask)}\n"
            f"X+      = {encoding.describe(self.closure_mask)}\n"
            f"DepB(X) = {{{basis_lines}}}"
        )


def _as_mask_sigma(encoding: BasisEncoding,
                   sigma: DependencySet | Iterable[Dependency]) -> tuple[
                       list[tuple[int, int]], list[tuple[int, int]]]:
    """Split Σ into FD and MVD ``(lhs_mask, rhs_mask)`` lists, in order."""
    fd_masks: list[tuple[int, int]] = []
    mvd_masks: list[tuple[int, int]] = []
    for dependency in sigma:
        pair = (encoding.encode(dependency.lhs), encoding.encode(dependency.rhs))
        if isinstance(dependency, FunctionalDependency):
            fd_masks.append(pair)
        else:
            mvd_masks.append(pair)
    return fd_masks, mvd_masks


def compute_closure(
    encoding: BasisEncoding,
    x: NestedAttribute | int,
    sigma: DependencySet | Iterable[Dependency],
    *,
    trace: TraceRecorder | None = None,
    kernel: str = "auto",
    stats: KernelStats | None = None,
    plan: CompiledPlan | None = None,
) -> ClosureResult:
    """Run Algorithm 5.1 for ``X`` with respect to ``Σ``.

    Parameters
    ----------
    encoding:
        The basis encoding of the ambient attribute ``N``.
    x:
        The attribute ``X ∈ Sub(N)`` (or its mask).
    sigma:
        The dependencies; FDs are processed before MVDs within each pass,
        each group in the order given — matching the paper's two FOR
        loops and making traces reproducible.
    trace:
        Optional recorder capturing every state transition (used to
        reproduce Figures 3 and 4).  Tracing forces the naive kernel,
        whose passes are the paper's REPEAT passes.
    kernel:
        ``"auto"`` (the registry's default engine — normally the
        worklist kernel — unless tracing), or any engine name from
        :func:`repro.core.engines.available_engines` (``"worklist"``,
        ``"naive"``, ``"reference"``).  All engines return bit-identical
        ``(X⁺, DB)``; the worklist kernel only re-fires dependencies
        whose inputs may have changed (see :mod:`repro.core.engine`).
    stats:
        Optional :class:`~repro.core.engine.KernelStats` accumulating
        instrumentation counters across runs.
    plan:
        Optional :class:`~repro.core.plan.CompiledPlan` compiled from
        the *same* ``(encoding, Σ)``.  When supplied (and not tracing),
        the mask tables come from the plan — Σ is not re-encoded — and
        the worklist engine runs off it directly; without one the
        worklist engine compiles Σ for this call.  Callers asking many
        questions of one Σ should compile once (or hold a
        :class:`~repro.core.session.Session`) and pass the plan.
    """
    # Local import: ``engines`` registers adapters over this module's
    # kernels, so the dependency must point engines → closure only.
    from .engines import get_engine

    x_mask = x if isinstance(x, int) else encoding.encode(x)
    if plan is not None and trace is None:
        fd_masks: Sequence[tuple[int, int]] = plan.fd_masks
        mvd_masks: Sequence[tuple[int, int]] = plan.mvd_masks
    else:
        fd_masks, mvd_masks = _as_mask_sigma(encoding, sigma)

    if trace is not None:
        if kernel not in ("auto", "naive"):
            raise ValueError("tracing requires the naive kernel (kernel='naive')")
        dependencies = list(sigma)
        fd_dependencies = [
            d for d in dependencies if isinstance(d, FunctionalDependency)
        ]
        mvd_dependencies = [
            d for d in dependencies if not isinstance(d, FunctionalDependency)
        ]
        fired: set[int] = set()
        closure_mask, blocks, passes = closure_of_masks(
            encoding,
            x_mask,
            fd_masks,
            mvd_masks,
            trace=trace,
            fd_labels=fd_dependencies,
            mvd_labels=mvd_dependencies,
            fired=fired,
        )
        return ClosureResult(
            encoding, x_mask, closure_mask, blocks, passes, frozenset(fired)
        )

    engine = get_engine(None if kernel == "auto" else kernel)
    fired = set()
    closure_mask, blocks, passes = engine.run(
        encoding, x_mask, fd_masks, mvd_masks, stats=stats, fired=fired,
        plan=plan,
    )
    return ClosureResult(
        encoding, x_mask, closure_mask, blocks, passes, frozenset(fired)
    )


def closure_of_masks_instrumented(
    plan: CompiledPlan,
    x_mask: int,
    *,
    stats: KernelStats | None = None,
    fired: set[int] | None = None,
) -> tuple[int, frozenset[int], int]:
    """The worklist kernel behind the observability layer.

    With the default (disabled) observer this *is*
    :func:`~repro.core.engine.closure_of_masks_fast` plus one enabled
    check — the overhead benchmark holds that to <3% on the E7 chain.
    With an enabled observer each run gets a ``closure.compute`` span
    whose attributes carry the per-run :class:`KernelStats` counters
    and the encoding-cache traffic, and the session-level metrics
    accumulate the same quantities (see docs/OBSERVABILITY.md).  The
    per-run counters are folded into the caller's ``stats`` afterwards,
    so ``KernelStats`` accumulators and the metrics layer each count
    every event exactly once.
    """
    obs = get_observer()
    if not obs.enabled:
        return closure_of_masks_fast(plan, x_mask, stats=stats, fired=fired)

    encoding = plan.encoding
    run_stats = KernelStats()
    hits_before, misses_before = encoding.cache_totals()
    with obs.span(
        "closure.compute",
        lhs=format(x_mask, "#x"),
        size=encoding.size,
        sigma=plan.sigma_size,
        fds=plan.fd_total,
        mvds=plan.mvd_total,
        kernel="worklist",
    ) as span:
        closure_mask, blocks, passes = closure_of_masks_fast(
            plan, x_mask, stats=run_stats, fired=fired,
        )
        hits_after, misses_after = encoding.cache_totals()
        cache_hits = hits_after - hits_before
        cache_misses = misses_after - misses_before
        # One run: ``runs`` is 1, and the span names the run itself.
        counters = run_stats.as_dict()
        span.set(
            **{name: value for name, value in counters.items()
               if name != "runs"},
            blocks=len(blocks),
            encoding_cache_hits=cache_hits,
            encoding_cache_misses=cache_misses,
        )

    metrics = obs.metrics
    for name, value in counters.items():
        metrics.add(f"closure.{name}", value)
    metrics.add("encoding.cache.hits", cache_hits)
    metrics.add("encoding.cache.misses", cache_misses)
    metrics.observe("closure.passes_per_run", passes)
    metrics.observe("closure.firings_per_run", run_stats.firings)

    if stats is not None:
        stats.merge(run_stats)
    return closure_mask, blocks, passes


def closure_of_masks(
    encoding: BasisEncoding,
    x_mask: int,
    fd_masks: Sequence[tuple[int, int]],
    mvd_masks: Sequence[tuple[int, int]],
    *,
    trace: TraceRecorder | None = None,
    fd_labels: Sequence[Dependency] | None = None,
    mvd_labels: Sequence[Dependency] | None = None,
    fired: set[int] | None = None,
) -> tuple[int, frozenset[int], int]:
    """Mask-level core of Algorithm 5.1; returns ``(X⁺, DB, passes)``.

    Separated from :func:`compute_closure` so the scaling benchmarks can
    time the algorithm without attribute-encoding overhead.  ``fired``
    optionally collects the FDs-then-MVDs indices of productive firings
    (provenance, mirroring the worklist kernel's parameter).
    """
    x_new = x_mask

    # DB_new := MaxB(X^CC) ∪ {X^C}
    db: set[int] = set()
    for index in iter_bits(encoding.maximal_of(encoding.double_complement(x_mask))):
        db.add(encoding.below[index])
    x_complement = encoding.complement(x_mask)
    if x_complement:
        db.add(x_complement)

    if trace is not None:
        trace.initial(encoding, x_new, frozenset(db))

    def u_bar(u_mask: int) -> int:
        """``Ū``: join of blocks owning a relevant basis attribute of U.

        A block ``W`` contributes iff some ``U'`` is possessed by ``W``,
        not yet in ``X_new``, and lies in ``SubB(U)``.
        """
        result = 0
        candidates = u_mask & ~x_new
        if not candidates:
            return 0
        for w in db:
            if encoding.possessed(w) & candidates:
                result |= w
        return result

    passes = 0
    while True:
        passes += 1
        # State changes are monotone (X_new only grows, DB only refines),
        # so per-step change flags are an exact substitute for the
        # pseudocode's ``X_new = X_old AND DB_new = DB_old`` — without
        # snapshotting ``frozenset(db)`` twice per pass.
        pass_changed = False

        # -- FD loop -----------------------------------------------------
        for position, (u_mask, v_mask) in enumerate(fd_masks):
            v_tilde = encoding.pseudo_difference(v_mask, u_bar(u_mask))
            changed = False
            if v_tilde:
                changed = bool(v_tilde & ~x_new)
                x_new |= v_tilde
                new_db: set[int] = set()
                for w in db:
                    survivor = encoding.double_complement(
                        encoding.pseudo_difference(w, v_tilde)
                    )
                    if survivor:
                        new_db.add(survivor)
                for index in iter_bits(
                    encoding.maximal_of(encoding.double_complement(v_tilde))
                ):
                    new_db.add(encoding.below[index])
                if new_db != db:
                    changed = True
                db = new_db
            pass_changed = pass_changed or changed
            if changed and fired is not None:
                fired.add(position)
            if trace is not None:
                label = fd_labels[position] if fd_labels else None
                trace.step(passes, label, True, v_tilde, changed, x_new, frozenset(db))

        # -- MVD loop ----------------------------------------------------
        for position, (u_mask, v_mask) in enumerate(mvd_masks):
            v_tilde = encoding.pseudo_difference(v_mask, u_bar(u_mask))
            changed = False
            if v_tilde:
                # X_new := X_new ⊔ (Ṽ ⊓ Ṽ^C)  — the mixed meet rule.
                overlap = v_tilde & encoding.complement(v_tilde)
                if overlap & ~x_new:
                    changed = True
                x_new |= overlap
                for w in list(db):
                    inside = encoding.double_complement(v_tilde & w)
                    if inside and inside != w:
                        changed = True
                        db.discard(w)
                        db.add(inside)
                        outside = encoding.double_complement(
                            encoding.pseudo_difference(w, v_tilde)
                        )
                        if outside:
                            db.add(outside)
            pass_changed = pass_changed or changed
            if changed and fired is not None:
                fired.add(len(fd_masks) + position)
            if trace is not None:
                label = mvd_labels[position] if mvd_labels else None
                trace.step(passes, label, False, v_tilde, changed, x_new, frozenset(db))

        if not pass_changed:
            break

    if trace is not None:
        trace.final(x_new, frozenset(db))
    return x_new, frozenset(db), passes
