"""A query-caching reasoner bound to one ``(N, Σ)`` pair.

Algorithm 5.1 computes, for one left-hand side ``X``, *everything* there
is to know about ``X`` (its closure and dependency basis). Applications
typically fire many queries against one fixed ``Σ`` — schema design
tools, the 4NF checker, interactive sessions — so re-running the
algorithm per query wastes exactly the structure the paper's approach
provides. :class:`Reasoner` memoises one :class:`ClosureResult` per
distinct left-hand side and answers everything else from the cache.

Since the session refactor this class is a thin façade over
:class:`repro.core.session.Session` (exposed as ``.session``), created
with ``label="reasoner"`` so the historical ``reasoner.*`` telemetry
names are preserved.  Use the session directly for incremental Σ
editing (``add`` / ``retract`` with provenance-exact cache retention);
the Reasoner keeps the original fixed-Σ query surface.

The cache is unbounded by default; pass ``maxsize`` to cap it, in which
case the least recently used left-hand side is evicted first.  For
batches of queries known up front, :class:`repro.batch.BulkReasoner`
adds grouped (optionally multi-process) evaluation on top of this class.

Example
-------
>>> from repro import Schema
>>> from repro.reasoner import Reasoner
>>> schema = Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
>>> sigma = schema.dependencies(
...     "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
>>> reasoner = Reasoner(schema, sigma)
>>> reasoner.implies("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
True
>>> reasoner.implies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])")
True
>>> reasoner.cache_info()   # one LHS computed, the second query hit it
ReasonerCacheInfo(computed=1, hits=1, evictions=0, maxsize=None)
>>> reasoner.cache_info() == (1, 1)   # still a two-tuple underneath
True
"""

from __future__ import annotations

from typing import Iterable

from .core import commands
from .core.closure import ClosureResult
from .core.engine import KernelStats
from .core.session import Session
from .dependencies.dependency import Dependency
from .dependencies.sigma import DependencySet
from .attributes.nested import NestedAttribute
from .schema import Schema

__all__ = ["Reasoner", "ReasonerCacheInfo"]


class ReasonerCacheInfo(tuple):
    """Cache statistics; compares and unpacks as ``(computed, hits)``.

    The historical two-tuple shape is preserved (``computed, hits =
    reasoner.cache_info()`` and ``cache_info() == (1, 1)`` keep
    working); the richer counters ride along as attributes.
    """

    def __new__(cls, computed: int, hits: int, *, evictions: int = 0,
                maxsize: int | None = None, encoding=None,
                kernel: KernelStats | None = None,
                plan=None) -> "ReasonerCacheInfo":
        self = super().__new__(cls, (computed, hits))
        self.evictions = evictions
        self.maxsize = maxsize
        #: The :class:`~repro.attributes.encoding.EncodingCacheInfo`.
        self.encoding = encoding
        #: Accumulated :class:`~repro.core.engine.KernelStats`.
        self.kernel = kernel
        #: The :class:`~repro.core.plan.PlanCacheInfo` of the session's
        #: closure-interval cache (``None`` only for hand-built infos).
        self.plan = plan
        return self

    @property
    def computed(self) -> int:
        return self[0]

    @property
    def hits(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return (
            f"ReasonerCacheInfo(computed={self[0]}, hits={self[1]}, "
            f"evictions={self.evictions}, maxsize={self.maxsize})"
        )


class Reasoner:
    """Memoised membership queries against a fixed dependency set.

    Parameters
    ----------
    schema:
        The :class:`~repro.schema.Schema` (or anything accepted by its
        constructor — an attribute or its textual form).
    sigma:
        The dependency set ``Σ``, as a :class:`DependencySet` or an
        iterable of dependency texts/objects.
    maxsize:
        Optional cap on the number of cached left-hand sides; least
        recently used results are evicted beyond it.  ``None`` (the
        default) keeps every result.
    engine:
        Optional engine name from the
        :mod:`repro.core.engines` registry; ``None`` uses the process
        default (normally ``"worklist"``).
    session:
        Optional pre-built :class:`~repro.core.session.Session` to wrap
        instead of creating one (its root must match the schema's).
    """

    def __init__(self, schema: Schema | NestedAttribute | str,
                 sigma: DependencySet | Iterable = (), *,
                 maxsize: int | None = None,
                 engine: str | None = None,
                 session: Session | None = None) -> None:
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        if session is not None:
            self.schema.encoding.require_root(session.root)
            self.session = session
        else:
            self.session = Session(
                self.schema.root,
                self.schema._sigma(sigma),
                engine=engine,
                encoding=self.schema.encoding,
                maxsize=maxsize,
                label="reasoner",
            )

    # -- session passthrough -------------------------------------------------

    @property
    def sigma(self) -> DependencySet:
        """The session's current Σ (a snapshot; edit via ``.session``)."""
        return self.session.sigma

    @property
    def maxsize(self) -> int | None:
        return self.session.maxsize

    @property
    def kernel_stats(self) -> KernelStats:
        """The session's accumulated kernel counters."""
        return self.session.kernel_stats

    # -- cache ---------------------------------------------------------------

    def result_for(self, x: NestedAttribute | str) -> ClosureResult:
        """The (cached) Algorithm 5.1 output for left-hand side ``x``."""
        mask = self.schema.encoding.encode(self.schema.attribute(x))
        return self.session.result_for_mask(mask)

    def result_for_mask(self, mask: int) -> ClosureResult:
        """Mask-level :meth:`result_for` (the batch API's entry point)."""
        return self.session.result_for_mask(mask)

    def cache_info(self) -> ReasonerCacheInfo:
        """``(distinct left-hand sides cached, cache hits)`` plus extras.

        The return value equals and unpacks like the historical
        two-tuple; ``.evictions``, ``.maxsize``, ``.encoding`` and
        ``.kernel`` expose the bounded-cache and instrumentation
        counters added with the worklist kernel.  The full incremental
        counters (provenance invalidations, retained entries) live on
        ``self.session.cache_info()``.
        """
        info = self.session.cache_info()
        return ReasonerCacheInfo(
            info.computed, info.hits,
            evictions=info.evictions,
            maxsize=info.maxsize,
            encoding=info.encoding,
            kernel=info.kernel,
            plan=info.plan,
        )

    def cache_clear(self, *, encoding: bool = False) -> None:
        """Drop all cached results and reset the counters.

        This signature is the library-wide cache-clearing contract:
        every ``cache_clear`` takes keyword-only flags, resets exactly
        the state its ``cache_info()`` reports on (entries *and*
        counters), and the ``encoding`` flag cascades one layer down.
        :meth:`BulkReasoner.cache_clear` forwards here verbatim;
        :meth:`BasisEncoding.cache_clear` is the bottom of the chain
        and takes no flags.

        With ``encoding=True`` the underlying
        :class:`~repro.attributes.encoding.BasisEncoding` memo caches
        (complement / pseudo-difference / possession) are cleared too;
        by default they survive, since they are keyed by masks that stay
        valid for the lifetime of the schema.
        """
        self.session.cache_clear(encoding=encoding)

    def describe_stats(self) -> str:
        """Readable counter dump for the CLI/shell ``stats`` surfaces."""
        return self.session.describe_stats()

    # -- queries ---------------------------------------------------------------

    def implies(self, dependency: Dependency | str) -> bool:
        """Decide ``Σ ⊨ σ`` using the per-LHS cache.

        Routed through the typed command layer
        (:class:`repro.core.commands.Implies`) — the same object the
        wire, CLI and shell dispatch — so every surface answers
        membership through one code path.
        """
        command = commands.Implies(
            dependency=self.schema.dependency(dependency))
        return commands.execute(command, self.session).value

    def closure(self, x: NestedAttribute | str) -> NestedAttribute:
        """The attribute-set closure ``X⁺``."""
        return self.session.closure(self.schema.attribute(x))

    def dependency_basis(self, x: NestedAttribute | str
                         ) -> tuple[NestedAttribute, ...]:
        """The dependency basis ``DepB(X)`` (via the command layer)."""
        command = commands.Basis(x=self.schema.attribute(x))
        return commands.execute(command, self.session).value.dependency_basis()

    def is_superkey(self, x: NestedAttribute | str) -> bool:
        """Whether ``Σ ⊨ X → N``."""
        return self.session.is_superkey(self.schema.attribute(x))

    def implied_mvd_rhs_masks(self, x: NestedAttribute | str) -> frozenset[int]:
        """All DepB member masks — the generators of ``Dep(X)``.

        By Proposition 4.10, the right-hand sides ``Y`` with
        ``X ↠ Y ∈ Σ⁺`` are exactly the joins of subsets of these; the set
        of all such ``Y`` forms a Brouwerian subalgebra of ``Sub(N)``
        (the remark before Definition 4.9).
        """
        return self.session.implied_mvd_rhs_masks(self.schema.attribute(x))

    def __repr__(self) -> str:
        computed, hits = self.cache_info()
        return (
            f"Reasoner(root={self.schema.root}, |Σ|={len(self.sigma)}, "
            f"cached={computed}, hits={hits})"
        )
