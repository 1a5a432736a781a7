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

The per-LHS closures run inline, in this process: Algorithm 5.1 is a
sequential fixpoint, and shipping one to a worker process costs more
than computing it.  Reads scale across cores through read replicas
(docs/REPLICATION.md), not through a pool here.

Naming note: :meth:`BulkReasoner.implies_all` (and the module-level
:func:`implies_all` convenience) return one verdict **per query**;
:func:`repro.core.membership.implies_every` — which held the name
``implies_all`` before the rename — folds its verdicts into a single
"Σ implies every one of them" boolean.
"""

from __future__ import annotations

from typing import Iterable

from .attributes.nested import NestedAttribute
from .core import commands
from .core.closure import ClosureResult
from .dependencies.dependency import Dependency
from .dependencies.sigma import DependencySet
from .obs import get_observer
from .reasoner import Reasoner
from .schema import Schema

__all__ = ["BulkReasoner", "implies_all"]


class BulkReasoner:
    """Grouped batch evaluation on top of a :class:`Reasoner` cache.

    Parameters
    ----------
    schema / sigma / maxsize:
        As for :class:`~repro.reasoner.Reasoner`; an existing reasoner
        can be wrapped instead by passing it as ``schema`` (its cache is
        shared, not copied).
    """

    def __init__(self, schema: Schema | Reasoner | NestedAttribute | str,
                 sigma: DependencySet | Iterable = (), *,
                 maxsize: int | None = None,
                 engine: str | None = None) -> None:
        if isinstance(schema, Reasoner):
            self.reasoner = schema
        else:
            self.reasoner = Reasoner(schema, sigma, maxsize=maxsize,
                                     engine=engine)

    @property
    def schema(self) -> Schema:
        return self.reasoner.schema

    @property
    def sigma(self) -> DependencySet:
        return self.reasoner.sigma

    # -- batch evaluation --------------------------------------------------

    def implies_all(self, dependencies: Iterable[Dependency | str]
                    ) -> list[bool]:
        """Decide ``Σ ⊨ σ`` for every query; one closure per distinct LHS.

        Returns the verdicts **in query order, one per query** — the
        conjunction-folding sibling is
        :func:`repro.core.membership.implies_every` (which was called
        ``implies_all`` there before the rename).
        """
        # The verdict sweep is the typed ImpliesBatch command — the
        # same object the wire dispatches — bound to the session: text
        # is parsed straight to masks, and a parsed dependency has each
        # side checked once, while it is encoded, with validate's
        # message (Session.dependency_masks).
        session = self.reasoner.session
        command = commands.ImpliesBatch(
            dependencies=tuple(dependencies)).bind(session)
        queries = len(command.dependencies)

        obs = get_observer()
        if not obs.enabled:
            return command.run(commands.CommandContext(session)).value

        distinct_lhs = len(command.lhs_masks(session))
        with obs.span("batch.implies_all", queries=queries,
                      distinct_lhs=distinct_lhs):
            # run() directly (no command.run wrapper span): the pinned
            # PR 2 contract parents each batch.query span straight
            # under batch.implies_all.
            verdicts = command.run(commands.CommandContext(session)).value
        obs.add("batch.queries", queries)
        obs.add("batch.batches")
        obs.observe("batch.fanout", distinct_lhs)
        return verdicts

    def closures_for(self, lhs_list: Iterable[NestedAttribute | str]
                     ) -> list[ClosureResult]:
        """Batch :meth:`Reasoner.result_for` over many left-hand sides."""
        schema = self.schema
        return [self.reasoner.result_for_mask(
                    schema.encoding.encode(schema.attribute(x)))
                for x in lhs_list]

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
            f"cached={computed}, hits={hits})"
        )


def implies_all(schema: Schema | NestedAttribute | str,
                sigma: DependencySet | Iterable,
                dependencies: Iterable[Dependency | str]) -> list[bool]:
    """One-shot batch membership: ``[Σ ⊨ σ for σ in dependencies]``.

    Functional face of :class:`BulkReasoner` for callers without state.
    Returns one verdict **per query**, in query order — not to be
    confused with :func:`repro.core.membership.implies_every` (formerly
    ``implies_all`` there too), which folds the verdicts into a single
    boolean "Σ implies every one of them".
    """
    return BulkReasoner(schema, sigma).implies_all(dependencies)
