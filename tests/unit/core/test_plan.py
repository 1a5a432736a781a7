"""Unit tests for repro.core.plan (CompiledPlan + ClosureIntervalCache)."""

import pickle

import pytest

from repro.attributes import BasisEncoding, parse_attribute as p
from repro.core import Session
from repro.core.closure import closure_of_masks
from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.engines import get_engine
from repro.core.plan import ClosureIntervalCache, CompiledPlan, compile_plan
from repro.dependencies import parse_dependency


@pytest.fixture()
def encoding():
    return BasisEncoding(p("R(A, B, C, L[M(D, E)])"))


def _masks(encoding, *texts):
    pairs = []
    for text in texts:
        dependency = parse_dependency(text, encoding.root)
        pairs.append((encoding.encode(dependency.lhs),
                      encoding.encode(dependency.rhs)))
    return pairs


class TestCompile:
    def test_folds_exact_duplicates_with_origin_remap(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B) -> R(C)",
                          "R(A) -> R(B)")
        mvd_masks = _masks(encoding, "R(C) ->> R(L[M(D)])",
                           "R(C) ->> R(L[M(D)])")
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        assert plan.sigma_size == 5
        assert len(plan) == 3                       # 2 distinct FDs + 1 MVD
        assert plan.fd_count == 2
        assert plan.fd_total == 3 and plan.mvd_total == 2
        # origin: folded position -> FIRST original FDs-then-MVDs index.
        assert plan.origin == (0, 1, 3)
        # folded_of: original index -> folded position (duplicates share).
        assert plan.folded_of == (0, 1, 0, 2, 2)

    def test_requeue_masks_invert_the_relevance_scan(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B, C) -> R(A)")
        mvd_masks = _masks(encoding, "R(C) ->> R(L[M(D)])")
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        assert len(plan.requeue_masks) == encoding.size
        for bit in range(encoding.size):
            expected = 0
            for position, (u, v, _is_fd) in enumerate(plan.deps):
                if (u | v) >> bit & 1:
                    expected |= 1 << position
            assert plan.requeue_masks[bit] == expected, bit

    def test_rhs_tilde_is_pseudo_difference_from_bottom(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(L[M(D, E)])")
        plan = compile_plan(encoding, fd_masks, [])
        (_, v, _), = plan.deps
        assert plan.rhs_tilde[0] == encoding.pseudo_difference(v, 0)

    def test_fd_and_mvd_constants_are_kind_specific(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B, C)")
        mvd_masks = _masks(encoding, "R(A) ->> R(L[M(D)])")
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        assert plan.rhs_tilde[0] is not None
        assert plan.rhs_overlap[0] is None
        assert plan.rhs_tilde[1] is not None
        assert plan.rhs_overlap[1] is not None

    def test_sigma_mismatch_is_rejected_by_the_kernel(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)")
        plan = compile_plan(encoding, fd_masks, [])
        with pytest.raises(ValueError, match="does not match"):
            get_engine("worklist").run(encoding, 0, fd_masks + fd_masks, [],
                                       plan=plan)


class TestPickleDeterminism:
    def test_same_sigma_compiles_to_identical_bytes(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(A) -> R(B)")
        mvd_masks = _masks(encoding, "R(B) ->> R(C)")
        first = pickle.dumps(compile_plan(encoding, fd_masks, mvd_masks),
                             protocol=pickle.HIGHEST_PROTOCOL)
        second = pickle.dumps(compile_plan(encoding, fd_masks, mvd_masks),
                              protocol=pickle.HIGHEST_PROTOCOL)
        assert first == second

    def test_roundtrip_preserves_tables_and_answers(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B) -> R(C)")
        mvd_masks = _masks(encoding, "R(C) ->> R(L[M(D)])")
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, CompiledPlan)
        for name in ("fd_masks", "mvd_masks", "deps", "fd_count", "origin",
                     "folded_of", "requeue_masks", "rhs_tilde"):
            assert getattr(clone, name) == getattr(plan, name), name
        x = plan.fd_masks[0][0]
        assert closure_of_masks_fast(clone, x) == closure_of_masks_fast(plan, x)

    def test_incremental_reuse_equals_fresh_compile(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B) -> R(C)")
        mvd_masks = _masks(encoding, "R(C) ->> R(L[M(D)])")
        old = compile_plan(encoding, fd_masks[:1], [])
        incremental = compile_plan(encoding, fd_masks, mvd_masks, reuse=old)
        fresh = compile_plan(encoding, fd_masks, mvd_masks)
        assert (pickle.dumps(incremental, protocol=pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL))


class TestKernelEquivalence:
    def test_planned_kernel_equals_naive_everywhere(self, encoding):
        # Duplicates fold in the plan but stay in the naive kernel's Σ.
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B) -> R(C)",
                          "R(A) -> R(B)")
        mvd_masks = _masks(encoding, "R(C) ->> R(L[M(D)])",
                           "R(C) ->> R(L[M(D)])", "R(L[M(E)]) ->> R(A)")
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        for generators in range(encoding.full + 1):
            x = encoding.down_close(generators)
            naive = closure_of_masks(encoding, x, fd_masks, mvd_masks)
            planned = closure_of_masks_fast(plan, x)
            assert planned[:2] == naive[:2], format(x, "#x")   # (X⁺, DB)

    def test_fired_reports_original_indices_for_duplicates(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(A) -> R(B)")
        plan = compile_plan(encoding, fd_masks, [])
        fired: set[int] = set()
        closure_of_masks_fast(plan, fd_masks[0][0], fired=fired)
        assert fired == {0}      # the FIRST original index, never {1}

    def test_requeue_scanned_shrinks_with_the_inverted_index(self, encoding):
        # Three productive FD firings are three dirty events.  A scan of
        # all of Σ per event would examine 3 × |Σ| = 9 positions; the
        # inverted index wakes only the 6 dependents of the dirty bits.
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(B) -> R(C)",
                          "R(C) -> R(L[M(D)])")
        plan = compile_plan(encoding, fd_masks, [])
        stats = KernelStats()
        closure_of_masks_fast(plan, fd_masks[0][0], stats=stats)
        assert stats.db_rewrites == 3
        assert stats.requeue_scanned == 6 < stats.db_rewrites * len(plan)
        assert (stats.passes, stats.firings, stats.requeues) == (2, 6, 3)

    def test_engines_without_plan_support_drop_it_silently(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)")
        plan = compile_plan(encoding, fd_masks, [])
        x = fd_masks[0][0]
        expected = get_engine("worklist").run(encoding, x, fd_masks, [],
                                              plan=plan)
        for name in ("naive", "reference"):
            outcome = get_engine(name).run(encoding, x, fd_masks, [],
                                           plan=plan)
            assert outcome[:2] == expected[:2], name


class TestClosureIntervalCache:
    def test_exact_then_interval_then_miss(self):
        cache = ClosureIntervalCache()
        cache.store(0b001, 0b111)
        assert cache.lookup(0b001) == 0b111          # exact
        assert cache.lookup(0b011) == 0b111          # 0b001 ≤ X ≤ 0b111
        assert cache.lookup(0b1000) is None          # outside every interval
        assert cache.info() == (1, 1, 1, 1)

    def test_interval_requires_both_bounds(self):
        cache = ClosureIntervalCache()
        cache.store(0b010, 0b011)
        assert cache.lookup(0b001) is None     # X' ≰ X
        assert cache.lookup(0b110) is None     # X ≰ X'⁺
        assert cache.info().misses == 2

    def test_store_is_bounded_and_discard_forgets(self):
        cache = ClosureIntervalCache(maxsize=2)
        cache.store(1, 1)
        cache.store(2, 2)
        cache.store(4, 4)                       # evicts the oldest (1)
        assert len(cache) == 2
        assert cache.lookup(1) is None
        cache.discard(2)
        assert cache.lookup(2) is None
        assert cache.lookup(4) == 4

    def test_clear_keeps_counters_reset_drops_them(self):
        cache = ClosureIntervalCache()
        cache.store(1, 1)
        cache.lookup(1)
        cache.clear()
        assert len(cache) == 0 and cache.info().exact_hits == 1
        cache.reset()
        assert cache.info() == (0, 0, 0, 0)

    def test_maxsize_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            ClosureIntervalCache(maxsize=0)


class TestSessionIntegration:
    def test_plan_is_edited_in_place_on_sigma_edits(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        first = session.plan
        assert session.plan is first                 # lazy + stable
        session.add("R(B) -> R(C)")
        assert session.plan is first                 # a delta, no compile
        assert first.sigma_size == 2
        session.retract("R(B) -> R(C)")
        assert session.plan is first
        assert first.sigma_size == 1

    def test_interval_hit_answers_without_a_kernel_run(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        a_mask = session.encoding.encode(session.attribute("R(A)"))
        ab_mask = session.encoding.encode(session.attribute("R(A, B)"))
        closure = session.closure_mask_for(a_mask)
        assert closure == session.closure_mask_for(ab_mask)   # A ≤ AB ≤ A⁺
        assert session.kernel_stats.runs == 1                 # no second run
        info = session.cache_info().plan
        assert info.interval_hits == 1

    def test_sigma_edit_clears_the_interval_cache(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)"])
        a_mask = session.encoding.encode(session.attribute("R(A)"))
        ab_mask = session.encoding.encode(session.attribute("R(A, B)"))
        session.closure_mask_for(a_mask)
        session.add("R(B) -> R(C)")
        grown = session.closure_mask_for(ab_mask)
        c_mask = session.encoding.encode(session.attribute("R(C)"))
        assert c_mask & grown == c_mask       # stale interval would miss C

    def test_interval_hits_are_closure_exact_for_fd_membership(self):
        session = Session("R(A, B, C)", ["R(A) -> R(B)", "R(B) -> R(C)"])
        assert session.implies("R(A) -> R(C)")
        assert session.implies("R(A, B) -> R(C)")     # interval-answered
        assert not session.implies("R(C) -> R(A)")
        assert session.is_superkey("R(A)")
