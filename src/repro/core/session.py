"""Session: the first-class ``(N, Σ, encoding, engine, caches)`` object.

Section 1.3 of the paper names iterative schema design — equivalence
checking, redundancy elimination, minimal covers — as the payoff of the
membership algorithm.  All of those workflows *edit* Σ: they drop a
candidate dependency, re-ask a few membership questions, and either keep
the smaller set or put the dependency back.  Before this module every
edit meant a fresh kernel run per query; a :class:`Session` instead owns
the Σ lifecycle and keeps its per-left-hand-side closure cache under
one rule:

* **An add drops every cached closure** — :meth:`Session.add` clears
  the cache, as it clears the closure-interval cache: a closure of the
  old Σ lacks the new member, and Algorithm 5.1 recomputes it from
  ``X_new := X``.  A hit is an entry that exists.

* **Provenance-tracked retraction** — every cached result records which
  Σ-members actually *fired productively* into it (``ClosureResult.fired``).
  :meth:`Session.retract` evicts exactly the entries whose provenance
  contains the retracted dependency: an absent dependency only ever
  fired as a no-op (``Ṽ = λ`` or an identity rewrite), so the run
  without it reaches the identical fixpoint and the cached result is
  still correct.  A redundancy sweep over Σ therefore shares one cache
  across *all* candidate covers instead of recomputing per candidate —
  see ``benchmarks/bench_incremental_cover.py`` for the measured effect.

The engine is picked from the :mod:`repro.core.engines` registry and can
be switched mid-session (:meth:`set_engine`); every engine answers
every query correctly.

:class:`repro.reasoner.Reasoner` is a thin façade over a Session with
``label="reasoner"`` (preserving its historical counter names and span
names); :mod:`repro.core.membership` and :mod:`repro.normalization`
drive retraction sessions internally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Iterable

from ..attributes.encoding import BasisEncoding
from ..attributes.nested import NestedAttribute
from ..attributes.parser import parse_attribute, parse_subattribute
from ..attributes.printer import unparse
from ..dependencies.dependency import (
    Dependency,
    FunctionalDependency,
    MultivaluedDependency,
    parse_dependency,
    split_dependency,
)
from ..dependencies.sigma import DependencySet
from ..exceptions import NotAnElementError
from ..obs import get_observer
from .closure import ClosureResult
from .engine import KernelStats
from .engines import Engine, get_engine
from .plan import ClosureIntervalCache, CompiledPlan, PlanCacheInfo, compile_plan

__all__ = ["Session", "SessionCacheInfo"]


class SessionCacheInfo(tuple):
    """Session cache statistics; compares and unpacks as ``(computed, hits)``.

    Mirrors :class:`repro.reasoner.ReasonerCacheInfo` (the façade builds
    one from the other) and adds the incremental-editing counters:
    ``invalidations`` (entries evicted by :meth:`Session.retract`
    because the retracted dependency was in their provenance) and
    ``retained`` (entries that survived a retraction because it was
    not).  ``plan`` carries the session's
    :class:`~repro.core.plan.PlanCacheInfo` — the closure-interval-cache
    counters (exact/interval/miss) — and ``codec`` the encoding's
    :meth:`~repro.attributes.encoding.BasisEncoding.codec_info`.
    """

    #: Always 0: a session never resumes a cached fixpoint.  Kept only
    #: because ``perfbench/tracing.py`` reads it.
    warm_starts = 0

    def __new__(cls, computed: int, hits: int, *,
                evictions: int = 0, invalidations: int = 0, retained: int = 0,
                maxsize: int | None = None, engine: str = "worklist",
                encoding=None, kernel: KernelStats | None = None,
                plan: PlanCacheInfo | None = None, codec=None,
                ) -> "SessionCacheInfo":
        self = super().__new__(cls, (computed, hits))
        self.evictions = evictions
        self.invalidations = invalidations
        self.retained = retained
        self.maxsize = maxsize
        self.engine = engine
        self.encoding = encoding
        self.kernel = kernel
        self.plan = plan
        self.codec = codec
        return self

    @property
    def computed(self) -> int:
        return self[0]

    @property
    def hits(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return (
            f"SessionCacheInfo(computed={self[0]}, hits={self[1]}, "
            f"evictions={self.evictions}, "
            f"invalidations={self.invalidations}, retained={self.retained}, "
            f"maxsize={self.maxsize}, engine={self.engine!r})"
        )


#: A Σ-member's key: ``(is_fd, lhs mask, rhs mask)``.
Key = tuple[bool, int, int]


class _CacheEntry:
    """One cached left-hand side.

    ``provenance`` is the set of Σ-members (as keys, *not* indices —
    indices shift when Σ changes because the kernels fire FDs before
    MVDs) that productively fired into ``result``.
    """

    __slots__ = ("result", "provenance")

    def __init__(self, result: ClosureResult, provenance: set[Key]) -> None:
        self.result = result
        self.provenance = provenance


class Session:
    """A mutable-Σ reasoning session with an incrementally-maintained cache.

    Parameters
    ----------
    root:
        The ambient nested attribute ``N`` (object or paper notation).
    sigma:
        Initial dependencies — a :class:`DependencySet`, or an iterable
        of dependency objects / ``"X -> Y"`` texts.
    engine:
        Engine name from :func:`repro.core.engines.available_engines`
        (``None`` → the registry default, normally ``"worklist"``).
    encoding:
        Optional pre-built :class:`BasisEncoding` to share (validated
        against ``root``).
    maxsize:
        Optional LRU cap on cached left-hand sides.
    stats:
        Optional external :class:`KernelStats` accumulator; a private
        one is created when omitted.
    label:
        Prefix for observability counter/span names (``"session"`` by
        default; the Reasoner façade passes ``"reasoner"`` to keep its
        historical ``reasoner.*`` telemetry).

    Example
    -------
    >>> from repro.core.session import Session
    >>> s = Session("Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
    ...             ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
    >>> s.implies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])")
    True
    >>> s.add("Pubcrawl(Visit[λ]) -> Pubcrawl(Person)")
    True
    >>> s.implies("Pubcrawl(Visit[λ]) ->> Pubcrawl(Visit[Drink(Pub)])")
    True
    >>> s.retract("Pubcrawl(Visit[λ]) -> Pubcrawl(Person)").display(s.root)
    'Pubcrawl(Visit[λ]) -> Pubcrawl(Person)'
    >>> len(s.sigma)
    1
    """

    def __init__(self, root: NestedAttribute | str,
                 sigma: DependencySet | Iterable = (), *,
                 engine: str | None = None,
                 encoding: BasisEncoding | None = None,
                 maxsize: int | None = None,
                 stats: KernelStats | None = None,
                 label: str = "session") -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be None or >= 1, got {maxsize!r}")
        self.root = parse_attribute(root) if isinstance(root, str) else root
        self.encoding = BasisEncoding.of(self.root, encoding)
        self.maxsize = maxsize
        self.kernel_stats = stats if stats is not None else KernelStats()
        self._label = label
        self._engine = get_engine(engine)
        # Σ in insertion order (a dict, so a retract is O(1)) and as a
        # set, keyed by masks.  A member's tree is the one it was added
        # as, or decoded on first demand (None until then).
        self._deps: dict[Key, Dependency | None] = {}
        self._dep_set: set[Key] = set()
        # Plan and cache state must exist before the initial adds
        # below: add() edits the plan and drops the caches.  While a
        # plan is live, _slot_deps / _slot_of map its member slots to
        # Σ-members and back.
        self._plan: CompiledPlan | None = None
        self._plan_reuse: CompiledPlan | None = None
        self._slot_deps: list[Key | None] = []
        self._slot_of: dict[Key, int] = {}
        self._interval = ClosureIntervalCache()
        self._entries: OrderedDict[int, _CacheEntry] = OrderedDict()
        for dependency in sigma:
            self.add(dependency)
        self._hits = 0
        self._evictions = 0
        self._invalidations = 0
        self._retained = 0
        self._tables: tuple[list[tuple[int, int]], list[tuple[int, int]],
                            list[Key]] | None = None
        self._sigma_view: DependencySet | None = None

    # -- parsing helpers -----------------------------------------------------

    def attribute(self, x: NestedAttribute | str) -> NestedAttribute:
        """Resolve (possibly abbreviated) subattribute notation."""
        if isinstance(x, NestedAttribute):
            return x
        return parse_subattribute(x, self.root)

    def dependency(self, dependency: Dependency | str) -> Dependency:
        """Parse one ``"X -> Y"`` / ``"X ->> Y"`` dependency."""
        if isinstance(dependency, (FunctionalDependency, MultivaluedDependency)):
            return dependency
        return parse_dependency(dependency, self.root)

    def attribute_mask(self, x: NestedAttribute | str) -> int:
        """The mask of ``x``: text is parsed straight to its mask
        (:meth:`BasisEncoding.parse`, no tree), an element is encoded."""
        if isinstance(x, str):
            return self.encoding.parse(x)
        return self.encoding.encode(x)

    # -- Σ views -------------------------------------------------------------

    @property
    def sigma(self) -> DependencySet:
        """The current Σ as an immutable :class:`DependencySet` snapshot."""
        if self._sigma_view is None:
            self._sigma_view = DependencySet(self.root, self.dependencies)
        return self._sigma_view

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        """The current Σ members in insertion order."""
        return tuple(map(self._member, self._deps))

    def _member(self, key: Key) -> Dependency:
        """The member ``key`` as a tree, decoded the first time it is asked
        for."""
        member = self._deps[key]
        if member is None:
            is_fd, lhs_mask, rhs_mask = key
            decode = self.encoding.decode
            kind = FunctionalDependency if is_fd else MultivaluedDependency
            member = self._deps[key] = kind(decode(lhs_mask), decode(rhs_mask))
        return member

    def __len__(self) -> int:
        return len(self._deps)

    def snapshot_state(self) -> dict:
        """The session's durable state as plain JSON-ready strings.

        The exact encoding :mod:`repro.store` snapshots persist: the
        schema as its canonical unparse and Σ as member displays in
        insertion order (:meth:`display_masks`) — both re-parse through
        the same code paths a wire ``open`` uses, so a recovered session
        is bit-identical to the live one it snapshots.
        """
        return {"schema": unparse(self.root),
                "dependencies": [self.display_masks(*key)
                                 for key in self._deps],
                "engine": self._engine.name}

    def display_masks(self, is_fd: bool, lhs_mask: int, rhs_mask: int) -> str:
        """The display of a dependency given by its masks: equal to
        :meth:`Dependency.display` of the decoded member, printed from
        the masks (:meth:`BasisEncoding.render`)."""
        render = self.encoding.render
        arrow = (FunctionalDependency if is_fd else MultivaluedDependency).arrow
        return f"{render(lhs_mask)} {arrow} {render(rhs_mask)}"

    def __contains__(self, dependency: Dependency) -> bool:
        if not isinstance(dependency, (FunctionalDependency,
                                       MultivaluedDependency)):
            return False
        try:
            return self.dependency_masks(dependency) in self._dep_set
        except NotAnElementError:
            return False

    # -- engine --------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The engine answering this session's queries."""
        return self._engine

    def set_engine(self, name: str | None) -> Engine:
        """Switch engines mid-session; returns the new engine.

        Cached results stay valid (all engines are bit-identical).
        """
        self._engine = get_engine(name)
        return self._engine

    # -- Σ editing -----------------------------------------------------------

    def add(self, dependency: Dependency | str) -> bool:
        """Add a dependency to Σ; returns False if already present.

        The dependency is bound to its masks (:meth:`dependency_masks`),
        which is also where bad text or a side outside ``Sub(N)`` fails;
        a member spelled differently is the same member.  A dependency
        object is kept as the member's tree.  A live plan takes the new
        member in place (:meth:`CompiledPlan.add`).  Every cached
        closure is dropped: it is a fixpoint of the smaller Σ.
        """
        key = self.dependency_masks(dependency)
        if key in self._dep_set:
            return False
        self._deps[key] = None if isinstance(dependency, str) else dependency
        self._dep_set.add(key)
        self._invalidate_views()
        self._entries.clear()
        plan = self._plan
        if plan is not None:
            is_fd, lhs_mask, rhs_mask = key
            self._slot_of[key] = plan.add(lhs_mask, rhs_mask, is_fd)
            self._slot_deps.append(key)
        obs = get_observer()
        if obs.enabled:
            with obs.span(f"{self._label}.add",
                          dependency=self.display_masks(*key),
                          sigma=len(self._deps)):
                pass
        return True

    def retract(self, dependency: Dependency | str) -> Dependency:
        """Remove a dependency from Σ; returns the removed member.

        Bound to masks like :meth:`add`; see :meth:`retract_masks`.

        Raises
        ------
        ValueError
            If the dependency is not a member of Σ.
        """
        key = self.dependency_masks(dependency)
        member = self._member(key) if key in self._dep_set else None
        self.retract_masks(*key)
        return member

    def retract_masks(self, is_fd: bool, lhs_mask: int, rhs_mask: int) -> None:
        """Mask-level :meth:`retract`.

        A live plan drops the member in place
        (:meth:`CompiledPlan.retract`).  Eviction is provenance-exact:
        an entry is dropped iff the retracted dependency productively
        fired into its cached result.
        All other entries are *retained* — their fixpoint provably does
        not depend on the retracted member; their ``fired`` indices
        above the retracted member's move down by one, so they keep
        naming the same members.

        Raises
        ------
        ValueError
            If the dependency is not a member of Σ; the message names
            its display (:meth:`display_masks`).
        """
        key = (is_fd, lhs_mask, rhs_mask)
        if key not in self._dep_set:
            raise ValueError(
                f"the dependency {self.display_masks(*key)} "
                f"is not a member of Σ"
            )
        index = self._sigma_index(key) if self._entries else 0
        del self._deps[key]
        self._dep_set.discard(key)
        self._invalidate_views()
        if self._plan is not None:
            slot = self._slot_of.pop(key)
            self._slot_deps[slot] = None
            if not self._plan.retract(slot):
                self._retire_plan()
        evicted = 0
        retained = 0
        for mask in list(self._entries):
            entry = self._entries[mask]
            if key in entry.provenance:
                del self._entries[mask]
                evicted += 1
            else:
                fired = entry.result.fired
                if fired and max(fired) > index:
                    entry.result = replace(entry.result, fired=frozenset(
                        i - (i > index) for i in fired))
                retained += 1
        self._invalidations += evicted
        self._retained += retained
        obs = get_observer()
        if obs.enabled:
            obs.add(f"{self._label}.cache.invalidations", evicted)
            with obs.span(f"{self._label}.retract",
                          dependency=self.display_masks(*key),
                          sigma=len(self._deps)) as span:
                span.set(evicted=evicted, retained=retained)

    def _sigma_index(self, key: Key) -> int:
        """A Σ-member's index in the FDs-then-MVDs order."""
        if self._plan is not None:
            (index,) = self._plan.sigma_indices((self._slot_of[key],))
            return index
        return self._mask_tables()[2].index(key)

    def _invalidate_views(self) -> None:
        self._tables = None
        self._sigma_view = None
        # Interval entries are fixpoints of the *old* Σ — wrong in both
        # directions (closures grow on add, shrink on retract) — so they
        # are dropped outright.
        self._interval.clear()

    def _retire_plan(self) -> None:
        """Drop the live plan: the next query recompiles Σ.

        Its per-dependency constants survive for every Σ-member it
        holds, so it is stashed as the next compile's ``reuse``.
        """
        self._plan_reuse = self._plan
        self._plan = None
        self._slot_deps = []
        self._slot_of = {}

    def _mask_tables(self) -> tuple[list[tuple[int, int]],
                                    list[tuple[int, int]], list[Key]]:
        """``(fd_masks, mvd_masks, ordered)`` for the current Σ.

        ``ordered`` lists Σ in the kernels' FDs-then-MVDs firing order,
        so a firing index ``i`` reported by an engine that does not read
        the plan names ``ordered[i]`` (raw indices shift when an FD is
        added after MVDs exist, so the mapping is rebuilt per Σ).  A
        compile numbers its slots the same way.
        """
        tables = self._tables
        if tables is None:
            fds = [key for key in self._deps if key[0]]
            mvds = [key for key in self._deps if not key[0]]
            tables = ([key[1:] for key in fds], [key[1:] for key in mvds],
                      fds + mvds)
            self._tables = tables
        return tables

    @property
    def plan(self) -> CompiledPlan:
        """The session's :class:`CompiledPlan` for the current Σ.

        Compiled on first use, then edited in place by :meth:`add` and
        :meth:`retract` (``O(popcount)`` per edit).  It is recompiled
        only when it asks to be (see :meth:`CompiledPlan.retract`), and
        the recompile reuses the per-dependency constants of the plan
        it replaces (see :func:`repro.core.plan.compile_plan`).
        """
        plan = self._plan
        if plan is None:
            fd_masks, mvd_masks, ordered = self._mask_tables()
            plan = compile_plan(self.encoding, fd_masks, mvd_masks,
                                reuse=self._plan_reuse)
            self._plan = plan
            self._plan_reuse = None
            self._slot_deps = list(ordered)
            self._slot_of = {key: slot for slot, key in enumerate(ordered)}
        return plan

    # -- the cache -----------------------------------------------------------

    def result_for(self, x: NestedAttribute | str) -> ClosureResult:
        """The (cached) result for left-hand side ``x``."""
        return self.result_for_mask(self.attribute_mask(x))

    def result_for_mask(self, mask: int) -> ClosureResult:
        """Mask-level :meth:`result_for` (the batch API's entry point)."""
        entry = self._entries.get(mask)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(mask)
            get_observer().add(f"{self._label}.cache.hits")
            return entry.result
        return self._compute(mask)

    def _compute(self, mask: int) -> ClosureResult:
        """One engine run, cached.

        A plan-reading engine runs off :attr:`plan` and speaks in its
        slots, which the result's ``fired`` turns back into
        FDs-then-MVDs indices; any other engine gets the FDs-then-MVDs
        mask tables.
        """
        engine = self._engine
        if engine.reads_plan:
            plan = self.plan
            fd_masks = mvd_masks = None
            members = self._slot_deps
        else:
            plan = None
            fd_masks, mvd_masks, members = self._mask_tables()
        fired: set[int] = set()
        obs = get_observer()
        if not obs.enabled:
            closure_mask, blocks, passes = engine.run(
                self.encoding, mask, fd_masks, mvd_masks,
                stats=self.kernel_stats, fired=fired, plan=plan,
            )
        else:
            obs.add(f"{self._label}.cache.misses")
            with obs.span(f"{self._label}.query", lhs=format(mask, "#x"),
                          cached=False, engine=engine.name):
                closure_mask, blocks, passes = engine.run(
                    self.encoding, mask, fd_masks, mvd_masks,
                    stats=self.kernel_stats, fired=fired, plan=plan,
                )
        indices = (frozenset(fired) if plan is None
                   else plan.sigma_indices(fired))
        result = ClosureResult(self.encoding, mask, closure_mask, blocks,
                               passes, indices)
        self._store(mask, _CacheEntry(result, {members[i] for i in fired}))
        return result

    def _store(self, mask: int, entry: _CacheEntry) -> None:
        self._entries[mask] = entry
        # Every freshly computed fixpoint also feeds the
        # interval cache — it is current for today's Σ by construction.
        self._interval.store(mask, entry.result.closure_mask)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                evicted_mask, _ = self._entries.popitem(last=False)
                # Keep the interval memo in lockstep with the bounded
                # result cache: an evicted LHS must be recomputed, not
                # answered from a memo the maxsize was meant to bound.
                self._interval.discard(evicted_mask)
                self._evictions += 1
                get_observer().add(f"{self._label}.cache.evictions")

    # -- cache membership ------------------------------------------------------

    def is_cached(self, mask: int) -> bool:
        """Whether ``mask`` has a cache entry."""
        return mask in self._entries

    def cached_masks(self) -> frozenset[int]:
        """The cached left-hand-side masks."""
        return frozenset(self._entries)

    # -- queries -------------------------------------------------------------

    def closure_mask_for(self, mask: int) -> int:
        """``X⁺`` as a mask, answered as cheaply as possible.

        Resolution order: the full result cache (exact hit — normal hit
        accounting), then the closure-interval cache (a
        cached ``X'`` with ``X' ≤ X ≤ X'⁺`` forces ``X⁺ = X'⁺`` without
        any kernel run), then a real computation.  Only closure-derived
        queries — FD membership, :meth:`closure`, :meth:`is_superkey` —
        may route through here: interval hits produce no blocks, and
        ``DepB(X)`` depends on ``X`` itself, not only on ``X⁺``, so
        basis queries always take :meth:`result_for_mask`.
        """
        entry = self._entries.get(mask)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(mask)
            get_observer().add(f"{self._label}.cache.hits")
            return entry.result.closure_mask
        cached = self._interval.lookup(mask)
        if cached is not None:
            return cached
        return self.result_for_mask(mask).closure_mask

    def dependency_masks(self, dependency: Dependency | str
                         ) -> tuple[bool, int, int]:
        """``(is_fd, lhs mask, rhs mask)`` of a dependency or its text.

        Text is split at its arrow (:func:`split_dependency`, as
        :func:`parse_dependency` does) and each side parsed straight to
        its mask, with the structural parser's errors.  A parsed
        dependency has each side checked once, by encoding it (a side
        found in the encode cache was checked when it was first
        encoded); a side outside ``Sub(N)`` raises
        :class:`~repro.exceptions.NotAnElementError` with
        :meth:`Dependency.validate`'s message, which names the side.
        """
        if isinstance(dependency, str):
            is_fd, lhs_text, rhs_text = split_dependency(dependency)
            parse = self.encoding.parse
            return is_fd, parse(lhs_text), parse(rhs_text)
        encode = self.encoding.encode
        try:
            return (isinstance(dependency, FunctionalDependency),
                    encode(dependency.lhs), encode(dependency.rhs))
        except NotAnElementError:
            dependency.validate(self.root)
            raise

    def implies(self, dependency: Dependency | str) -> bool:
        """Decide ``Σ ⊨ σ`` using the per-LHS cache (Proposition 4.10)."""
        return self.implies_masks(*self.dependency_masks(dependency))

    def implies_masks(self, is_fd: bool, lhs_mask: int, rhs_mask: int) -> bool:
        """Mask-level :meth:`implies`."""
        if is_fd:
            # Σ ⊨ X → Y iff Y ≤ X⁺: closure-derived, interval-eligible.
            return rhs_mask & ~self.closure_mask_for(lhs_mask) == 0
        return self.result_for_mask(lhs_mask).implies_mvd_rhs(rhs_mask)

    def closure(self, x: NestedAttribute | str) -> NestedAttribute:
        """The attribute-set closure ``X⁺``."""
        return self.encoding.decode(self.closure_mask_for(self.attribute_mask(x)))

    def dependency_basis(self, x: NestedAttribute | str
                         ) -> tuple[NestedAttribute, ...]:
        """The dependency basis ``DepB(X)``."""
        return self.result_for(x).dependency_basis()

    def is_superkey(self, x: NestedAttribute | str) -> bool:
        """Whether ``Σ ⊨ X → N``."""
        return self.closure_mask_for(self.attribute_mask(x)) == self.encoding.full

    def implied_mvd_rhs_masks(self, x: NestedAttribute | str) -> frozenset[int]:
        """All DepB member masks — the generators of ``Dep(X)``."""
        return self.result_for(x).dependency_basis_masks()

    # -- statistics ----------------------------------------------------------

    def cache_info(self) -> SessionCacheInfo:
        """``(cached left-hand sides, hits)`` plus the incremental counters."""
        return SessionCacheInfo(
            len(self._entries), self._hits,
            evictions=self._evictions,
            invalidations=self._invalidations,
            retained=self._retained,
            maxsize=self.maxsize,
            engine=self._engine.name,
            encoding=self.encoding.cache_info(),
            kernel=self.kernel_stats,
            plan=self._interval.info(),
            codec=self.encoding.codec_info(),
        )

    def cache_clear(self, *, encoding: bool = False) -> None:
        """Drop all cached results and reset the counters.

        Follows the library-wide contract (keyword-only flags, resets
        exactly what ``cache_info()`` reports, ``encoding=True``
        cascades to :meth:`BasisEncoding.cache_clear`).
        """
        self._entries.clear()
        self._hits = 0
        self._evictions = 0
        self._invalidations = 0
        self._retained = 0
        self._interval.reset()
        self.kernel_stats.reset()
        if encoding:
            self.encoding.cache_clear()

    def describe_stats(self) -> str:
        """Readable counter dump for the CLI/shell ``stats`` surfaces.

        The first/kernel/encoding lines keep the exact historical
        :meth:`repro.reasoner.Reasoner.describe_stats` format (the shell
        prints this through the façade); the ``session`` line adds the
        incremental-editing counters.
        """
        info = self.cache_info()
        kernel = info.kernel
        head_line = (
            f"{self._label}: computed={info.computed} hits={info.hits} "
            f"evictions={info.evictions}"
        )
        if info.maxsize is not None:
            head_line += f" maxsize={info.maxsize}"
        session_line = (
            f"session:  engine={info.engine} |Σ|={len(self._deps)} "
            f"invalidations={info.invalidations} retained={info.retained}"
        )
        plan = info.plan
        plan_line = (
            f"plan:     exact_hits={plan.exact_hits} "
            f"interval_hits={plan.interval_hits} misses={plan.misses} "
            f"entries={plan.entries}"
        )
        kernel_line = (
            f"kernel:   runs={kernel.runs} passes={kernel.passes} "
            f"firings={kernel.firings} requeues={kernel.requeues} "
            f"scanned={kernel.requeue_scanned} "
            f"skipped={kernel.skipped_firings} "
            f"u_bar_lookups={kernel.u_bar_lookups} "
            f"u_bar_blocks={kernel.u_bar_blocks} "
            f"splits={kernel.block_splits} rewrites={kernel.db_rewrites}"
        )
        ops = ", ".join(
            f"{op}={hits}/{hits + misses}"
            for op, (hits, misses, _size, _maxsize)
            in sorted(info.encoding.items())
        )
        encoding_line = (
            f"encoding: {ops} (hit rate {info.encoding.hit_rate():.1%})"
        )
        return "\n".join((head_line, session_line, plan_line, kernel_line,
                          encoding_line))

    def __repr__(self) -> str:
        return (
            f"Session(root={self.root}, |Σ|={len(self._deps)}, "
            f"engine={self._engine.name!r}, cached={len(self._entries)}, "
            f"hits={self._hits})"
        )
