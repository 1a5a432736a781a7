"""Batch membership: answer many ``Σ ⊨ σ`` queries in one sweep.

Algorithm 5.1's cost is per *left-hand side*, not per query — one run
yields ``(X⁺, DepB(X))`` and settles every ``X → Y`` / ``X ↠ Y`` for
that ``X``.  :class:`BulkReasoner` exploits this for batches known up
front:

1. parse and validate every query,
2. group them by LHS mask and compute each distinct, not-yet-cached
   closure exactly once (the per-LHS results land in an embedded
   :class:`~repro.reasoner.Reasoner` cache, so later batches and ad-hoc
   queries reuse them), and
3. answer each query from its group's result.

For large batches over big schemas the distinct LHS closures are
independent, so step 2 can optionally fan out over a
``concurrent.futures`` process pool running the shared worker of
:mod:`repro.core.worker`: tasks carry the parent session's pickled
:class:`~repro.core.plan.CompiledPlan` (pickled once per Σ revision,
unpickled once per worker thanks to the worker's ``(epoch, generation)``
memo — queries travel as plain ``int`` masks) and stream back
``(mask, X⁺, blocks, passes, ...)`` rows.  Workers pay process start-up
and pickling costs, so the parallel path is opt-in and only engaged when
the batch leaves enough distinct closures to matter; the warmed pool
then *persists* across batches and Σ edits and is released by
:meth:`BulkReasoner.shutdown` (or by using the reasoner as a context
manager — the same pool lifecycle contract as
:class:`repro.serve.server.ReasoningServer`).

Naming note: :meth:`BulkReasoner.implies_all` (and the module-level
:func:`implies_all` convenience) return one verdict **per query**;
:func:`repro.core.membership.implies_every` — which held the name
``implies_all`` before the rename — folds its verdicts into a single
"Σ implies every one of them" boolean.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

import pickle

from .attributes.nested import NestedAttribute
from .core import commands, worker
from .core.closure import ClosureResult
from .core.plan import CompiledPlan
from .dependencies.dependency import Dependency
from .dependencies.sigma import DependencySet
from .obs import get_observer
from .reasoner import Reasoner
from .schema import Schema

__all__ = ["BulkReasoner", "implies_all"]

# Minimum number of distinct uncached left-hand sides before a process
# pool is worth its start-up cost.
_MIN_PARALLEL_LHS = 4


class BulkReasoner:
    """Grouped batch evaluation on top of a :class:`Reasoner` cache.

    Parameters
    ----------
    schema / sigma / maxsize:
        As for :class:`~repro.reasoner.Reasoner`; an existing reasoner
        can be wrapped instead by passing it as ``schema`` (its cache is
        shared, not copied).
    workers:
        Default process-pool width for :meth:`implies_all`.  ``None``
        or ``0`` evaluates in-process; ``workers > 1`` fans distinct
        uncached left-hand sides out over that many worker processes
        (batches with fewer than four such LHSs stay in-process — the
        pool would cost more than it saves).
    """

    def __init__(self, schema: Schema | Reasoner | NestedAttribute | str,
                 sigma: DependencySet | Iterable = (), *,
                 maxsize: int | None = None,
                 workers: int | None = None,
                 engine: str | None = None) -> None:
        if isinstance(schema, Reasoner):
            self.reasoner = schema
        else:
            self.reasoner = Reasoner(schema, sigma, maxsize=maxsize,
                                     engine=engine)
        self.workers = workers
        self._pool = None
        self._pool_workers = 0
        # Worker plan-memo key: one epoch per reasoner, one generation
        # per compiled plan shipped (module doc of repro.core.worker).
        self._epoch = worker.EPOCHS.next()
        self._generation = 0
        self._plan: CompiledPlan | None = None
        self._plan_blob = b""

    # -- pool lifecycle ----------------------------------------------------
    #
    # The process pool is a context-managed resource with the same
    # contract as the server's (:class:`repro.serve.server.ReasoningServer`):
    # created lazily, reused across batches and Σ edits (workers keep
    # their plan memo warm), and released deterministically by
    # ``shutdown()`` / ``with`` — never leaked on exception paths.

    def __enter__(self) -> "BulkReasoner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the worker pool (idempotent; a no-op without one).

        The embedded reasoner and its cache stay usable — only the
        fan-out processes are reclaimed.  The next parallel batch
        simply warms a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.shutdown()
        except Exception:
            pass

    def _pool_for(self, workers: int):
        """The persistent pool, rebuilt only when its width changes."""
        if self._pool is None or self._pool_workers != workers:
            self.shutdown()
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=worker.init_worker)
            self._pool_workers = workers
        return self._pool

    def _plan_payload(self) -> tuple[tuple[int, int], bytes]:
        """``((epoch, generation), pickled plan)`` for the current Σ.

        The session recompiles its plan on every Σ edit, so a new plan
        object is a new Σ revision: it gets the next generation and is
        pickled once.  Holding the previous plan keeps its identity from
        being reused by a later one.
        """
        plan = self.reasoner.session.plan
        if plan is not self._plan:
            self._plan = plan
            self._generation += 1
            self._plan_blob = pickle.dumps(plan,
                                           protocol=pickle.HIGHEST_PROTOCOL)
        return (self._epoch, self._generation), self._plan_blob

    @property
    def schema(self) -> Schema:
        return self.reasoner.schema

    @property
    def sigma(self) -> DependencySet:
        return self.reasoner.sigma

    # -- batch evaluation --------------------------------------------------

    def implies_all(self, dependencies: Iterable[Dependency | str], *,
                    workers: int | None = None) -> list[bool]:
        """Decide ``Σ ⊨ σ`` for every query; one closure per distinct LHS.

        Returns the verdicts **in query order, one per query** — the
        conjunction-folding sibling is
        :func:`repro.core.membership.implies_every` (which was called
        ``implies_all`` there before the rename).  ``workers`` overrides
        the instance default for this batch.
        """
        schema = self.schema
        parsed: list[Dependency] = []
        for dependency in dependencies:
            dependency = schema.dependency(dependency)
            dependency.validate(schema.root)
            parsed.append(dependency)

        if workers is None:
            workers = self.workers

        # The verdict sweep is the typed ImpliesBatch command — the
        # same object the wire dispatches — run against the session
        # after this class's pool fan-out has warmed the distinct LHS
        # closures.  Parsed Dependency objects are passed through so
        # nothing is re-parsed.
        session = self.reasoner.session
        command = commands.ImpliesBatch(dependencies=tuple(parsed))
        lhs_masks = command.lhs_masks(session)

        obs = get_observer()
        if not obs.enabled:
            self._prefetch(lhs_masks, workers)
            return command.run(commands.CommandContext(session)).value

        with obs.span("batch.implies_all", queries=len(parsed),
                      distinct_lhs=len(lhs_masks), workers=workers or 0):
            self._prefetch(lhs_masks, workers)
            # run() directly (no command.run wrapper span): the pinned
            # PR 2 contract parents each batch.query span straight
            # under batch.implies_all.
            verdicts = command.run(commands.CommandContext(session)).value
        obs.add("batch.queries", len(parsed))
        obs.add("batch.batches")
        obs.observe("batch.fanout", len(lhs_masks))
        return verdicts

    def closures_for(self, lhs_list: Iterable[NestedAttribute | str], *,
                     workers: int | None = None) -> list[ClosureResult]:
        """Batch :meth:`Reasoner.result_for` over many left-hand sides."""
        schema = self.schema
        masks = [schema.encoding.encode(schema.attribute(x)) for x in lhs_list]
        if workers is None:
            workers = self.workers
        self._prefetch(masks, workers)
        return [self.reasoner.result_for_mask(mask) for mask in masks]

    # -- internals ---------------------------------------------------------

    def _prefetch(self, lhs_masks: Sequence[int], workers: int | None) -> None:
        """Compute distinct uncached LHS closures, fanning out if asked.

        Pool workers always run the worklist kernel whatever engine the
        parent session selected — all registered engines are
        bit-identical, and the structural reference engine would defeat
        the point of fanning out.
        """
        session = self.reasoner.session
        pending: list[int] = []
        seen: set[int] = set()
        for mask in lhs_masks:
            if mask not in seen and not session.is_cached(mask):
                seen.add(mask)
                pending.append(mask)
        if not pending:
            return
        if not workers or workers <= 1 or len(pending) < _MIN_PARALLEL_LHS:
            return  # result_for_mask computes serially on demand

        obs = get_observer()
        encoding = self.schema.encoding
        with obs.span("batch.prefetch", pending=len(pending),
                      workers=min(workers, len(pending)), parallel=True):
            obs.add("batch.pool_dispatches")
            key, plan_blob = self._plan_payload()
            task = partial(worker.solve, key, plan_blob,
                           span="batch.worker" if obs.enabled else None)
            for (mask, closure_mask, blocks, passes, fired, _kernel_ns,
                 spans) in self._pool_for(workers).map(
                    task, pending,
                    chunksize=max(1, len(pending) // workers)):
                session.seed(
                    mask,
                    ClosureResult(encoding, mask, closure_mask, blocks,
                                  passes, frozenset(fired)),
                    fired,
                )
                if spans:
                    # Re-number the worker's ids into this observer
                    # and graft its roots under the prefetch span.
                    obs.adopt(spans)

    # -- conveniences ------------------------------------------------------

    def implies(self, dependency: Dependency | str) -> bool:
        """Single-query passthrough to the embedded reasoner."""
        return self.reasoner.implies(dependency)

    def cache_info(self):
        return self.reasoner.cache_info()

    def cache_clear(self, *, encoding: bool = False) -> None:
        """Clear the shared reasoner cache (the library-wide contract).

        Same keyword contract as :meth:`Reasoner.cache_clear`: clears
        exactly what :meth:`cache_info` reports on, and ``encoding=True``
        cascades to :meth:`BasisEncoding.cache_clear`.
        """
        self.reasoner.cache_clear(encoding=encoding)

    def __repr__(self) -> str:
        computed, hits = self.reasoner.cache_info()
        return (
            f"BulkReasoner(root={self.schema.root}, |Σ|={len(self.sigma)}, "
            f"cached={computed}, hits={hits}, workers={self.workers})"
        )


def implies_all(schema: Schema | NestedAttribute | str,
                sigma: DependencySet | Iterable,
                dependencies: Iterable[Dependency | str], *,
                workers: int | None = None) -> list[bool]:
    """One-shot batch membership: ``[Σ ⊨ σ for σ in dependencies]``.

    Functional face of :class:`BulkReasoner` for callers without state.
    Returns one verdict **per query**, in query order — not to be
    confused with :func:`repro.core.membership.implies_every` (formerly
    ``implies_all`` there too), which folds the verdicts into a single
    boolean "Σ implies every one of them".
    """
    return BulkReasoner(schema, sigma, workers=workers).implies_all(dependencies)
