"""Exact-count tests for the instrumentation counters and cache_info().

The observability layer folds :class:`KernelStats`, the session cache
counters and the encoding memo-cache counters into span attributes and
metrics, so their *exact* values are now API: a counter that drifts by
one double-counts (or drops) an event in every trace.  These tests pin
the counts on hand-derived workloads small enough to replay on paper.

The ``cache_clear`` contract (keyword-only flags, resets exactly what
``cache_info()`` reports, ``encoding=True`` cascades one layer down) is
verified on :class:`Session` and :class:`BasisEncoding` at the bottom.
The session is driven through the command registry, as the CLI, the
shell and the server drive it.
"""

from __future__ import annotations

import pytest

from repro.attributes import BasisEncoding, parse_attribute, parse_subattribute
from repro.core import commands
from repro.core.closure import closure_of_masks_instrumented
from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.plan import compile_plan
from repro.core.session import Session


def ask(session: Session, text: str) -> bool:
    """``Σ ⊨ σ`` through the registry's ``implies`` command."""
    return commands.execute(commands.Implies(dependency=text), session).value


def ask_all(session: Session, texts) -> list[bool]:
    """One verdict per query through the registry's ``implies_batch``."""
    return commands.execute(
        commands.ImpliesBatch(dependencies=tuple(texts)), session).value


@pytest.fixture()
def flat():
    """``R(A, B, C)`` with its encoding and the three singleton masks."""
    root = parse_attribute("R(A, B, C)")
    encoding = BasisEncoding(root)

    def mask(text):
        return encoding.encode(parse_subattribute(text, root))

    return encoding, mask("R(A)"), mask("R(B)"), mask("R(C)")


class TestKernelStatsExactCounts:
    """Counter-for-counter replays of the worklist kernel on R(A, B, C)."""

    def test_empty_sigma(self, flat):
        encoding, a, _, _ = flat
        stats = KernelStats()
        closure_of_masks_fast(compile_plan(encoding, [], []), a, stats=stats)
        assert stats.as_dict() == {
            "runs": 1, "passes": 1, "firings": 0, "requeues": 0,
            "requeue_scanned": 0, "skipped_firings": 0,
            "u_bar_lookups": 0, "u_bar_blocks": 0, "block_splits": 0,
            "db_rewrites": 0, "dirty_bits": 0,
        }

    def test_single_firing_fd(self, flat):
        # A -> B from X = A: one productive firing (rewriting the B|C
        # block into B and C singletons, 2 dirty bits), one requeued
        # re-fire that changes nothing.  The one dirty event wakes its
        # one dependent (A -> B itself): requeue_scanned = 1.
        encoding, a, b, _ = flat
        stats = KernelStats()
        closure_of_masks_fast(compile_plan(encoding, [(a, b)], []), a, stats=stats)
        assert stats.as_dict() == {
            "runs": 1, "passes": 2, "firings": 2, "requeues": 1,
            "requeue_scanned": 1, "skipped_firings": 0,
            "u_bar_lookups": 0, "u_bar_blocks": 0, "block_splits": 0,
            "db_rewrites": 1, "dirty_bits": 2,
        }

    def test_single_firing_mvd(self, flat):
        # A ->> B from X = A: same shape, but the block change is a
        # *split* of B|C (no FD rewrite), and the trivial mixed meet
        # adds nothing to X+.
        encoding, a, b, _ = flat
        stats = KernelStats()
        plan = compile_plan(encoding, [], [(a, b)])
        result, _, _ = closure_of_masks_fast(plan, a, stats=stats)
        assert result == a
        assert stats.as_dict() == {
            "runs": 1, "passes": 2, "firings": 2, "requeues": 1,
            "requeue_scanned": 1, "skipped_firings": 0,
            "u_bar_lookups": 0, "u_bar_blocks": 0, "block_splits": 1,
            "db_rewrites": 0, "dirty_bits": 2,
        }

    def test_skipped_firing_counts_u_bar_lookup(self, flat):
        # B -> C from X = A: B is not below X_new, so Ū actually scans
        # the owner index (one lookup visiting the one distinct owner
        # block B|C), swallows C, and the firing is skipped without any
        # state change.
        encoding, a, b, c = flat
        stats = KernelStats()
        closure_of_masks_fast(compile_plan(encoding, [(b, c)], []), a, stats=stats)
        assert stats.as_dict() == {
            "runs": 1, "passes": 1, "firings": 1, "requeues": 0,
            "requeue_scanned": 0, "skipped_firings": 1,
            "u_bar_lookups": 1, "u_bar_blocks": 1, "block_splits": 0,
            "db_rewrites": 0, "dirty_bits": 0,
        }

    def test_accumulates_across_runs(self, flat):
        encoding, a, b, _ = flat
        stats = KernelStats()
        closure_of_masks_fast(compile_plan(encoding, [(a, b)], []), a, stats=stats)
        closure_of_masks_fast(compile_plan(encoding, [(a, b)], []), a, stats=stats)
        assert stats.runs == 2
        assert stats.passes == 4
        assert stats.firings == 4

    def test_merge_and_reset(self):
        left, right = KernelStats(), KernelStats()
        left.firings = 3
        left.dirty_bits = 5
        right.firings = 4
        right.runs = 1
        left.merge(right)
        assert left.firings == 7
        assert left.dirty_bits == 5
        assert left.runs == 1
        left.reset()
        assert all(value == 0 for value in left.as_dict().values())

    def test_instrumented_entry_point_counts_once(self, flat):
        # With the default (disabled) observer the obs entry point must
        # produce byte-identical counters to the raw kernel — merging a
        # private per-run instance must not double-count.
        encoding, a, b, _ = flat
        direct, via_obs = KernelStats(), KernelStats()
        closure_of_masks_fast(compile_plan(encoding, [(a, b)], []), a, stats=direct)
        closure_of_masks_instrumented(compile_plan(encoding, [(a, b)], []), a,
                                      stats=via_obs)
        assert via_obs.as_dict() == direct.as_dict()


class TestReasonerCacheInfoExactCounts:
    QUERY_TEXTS = (
        "R(A) -> R(B)",     # computes A+
        "R(A) ->> R(C)",    # hit (same lhs)
        "R(B) -> R(C)",     # computes B+
        "R(A) -> R(C)",     # hit
        "R(C) ->> R(A)",    # computes C+
    )

    def test_three_distinct_lhs_two_hits(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        for text in self.QUERY_TEXTS:
            ask(session, text)
        info = session.cache_info()
        assert (info.computed, info.hits) == (3, 2)
        assert info.evictions == 0
        assert info.maxsize is None
        # tuple-compatibility: unpacks like the historical two-tuple
        computed, hits = info
        assert (computed, hits) == (3, 2)
        # one kernel run per computed entry, never per hit
        assert info.kernel.runs == 3

    def test_bounded_cache_counts_evictions(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"], maxsize=2)
        for text in self.QUERY_TEXTS:
            ask(session, text)
        info = session.cache_info()
        assert info.computed == 2          # live entries, capped
        assert info.evictions == 1         # A+ evicted when C+ arrived
        assert info.maxsize == 2

    def test_bulk_reasoner_delegates(self):
        # a batch counts exactly as its queries asked one by one
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        ask_all(session, self.QUERY_TEXTS)
        info = session.cache_info()
        assert (info.computed, info.hits) == (3, 2)
        assert info.kernel.runs == 3


class TestEncodingCacheInfoExactCounts:
    def test_per_operation_hits_and_misses(self, flat):
        encoding = BasisEncoding(parse_attribute("R(A, B, C)"))
        _, a, b, _ = flat
        # ∸, ^C and possession are computed directly: no memo traffic.
        encoding.complement(a); encoding.complement(a)
        encoding.pseudo_difference(b, a); encoding.pseudo_difference(b, a)
        encoding.possessed(b); encoding.possessed(b)
        encoding.double_complement(b); encoding.double_complement(b)
        encoding.double_complement(a)
        info = encoding.cache_info()
        assert list(info) == ["double_complement"]
        assert info["double_complement"][:3] == (1, 2, 2)
        assert encoding.cache_totals() == (1, 2)

    def test_cache_totals_matches_cache_info(self, flat):
        encoding, a, b, c = flat
        closure_of_masks_fast(compile_plan(encoding, [(a, b)], [(b, c)]), a)
        info = encoding.cache_info()
        hits = sum(row[0] for row in info.values())
        misses = sum(row[1] for row in info.values())
        assert encoding.cache_totals() == (hits, misses)
        assert misses > 0


class TestCacheClearContract:
    """One keyword contract across Session and BasisEncoding.

    ``cache_clear`` resets exactly the state its ``cache_info()``
    reports on; the keyword-only ``encoding`` flag cascades one layer
    down to :meth:`BasisEncoding.cache_clear`.
    """

    @staticmethod
    def _warm(session: Session) -> None:
        ask(session, "R(A) -> R(C)")
        ask(session, "R(A) ->> R(B)")

    @staticmethod
    def _assert_session_reset(info) -> None:
        assert (info.computed, info.hits, info.evictions) == (0, 0, 0)
        assert all(value == 0 for value in info.kernel.as_dict().values())

    @staticmethod
    def _encoding_traffic(info) -> int:
        return sum(row[0] + row[1] + row[2] for row in info.values())

    def test_default_keeps_encoding_caches(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        self._warm(session)
        before = self._encoding_traffic(session.encoding.cache_info())
        assert before > 0
        session.cache_clear()
        self._assert_session_reset(session.cache_info())
        after = self._encoding_traffic(session.encoding.cache_info())
        assert after == before

    def test_encoding_flag_cascades(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        self._warm(session)
        session.cache_clear(encoding=True)
        self._assert_session_reset(session.cache_info())
        assert self._encoding_traffic(session.encoding.cache_info()) == 0
        assert session.encoding.cache_totals() == (0, 0)

    def test_bulk_reasoner_forwards_verbatim(self):
        # the contract holds after a batch as after single queries
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        ask_all(session, ["R(A) -> R(C)", "R(B) ->> R(C)"])
        session.cache_clear(encoding=True)
        self._assert_session_reset(session.cache_info())
        assert self._encoding_traffic(session.encoding.cache_info()) == 0

    def test_flags_are_keyword_only(self):
        session = Session("R(A, B, C)", [])
        with pytest.raises(TypeError):
            session.cache_clear(True)
