"""Unit tests for the Session's cache rule: an add drops every cached
closure, a retract evicts by provenance.

The exact-count tests drive ``KernelStats.runs`` directly: a cache hit
must not run the kernel, an add must leave nothing cached, and a
retraction must evict exactly the entries whose recorded firing set
contains the retracted dependency.
"""

import random
import tracemalloc

import pytest

from repro.attributes import BasisEncoding, parse_attribute as p, parse_subattribute
from repro.core import Session, compute_closure, minimal_cover
from repro.core.membership import is_redundant
from repro.dependencies import DependencySet, parse_dependency
from repro.workloads.random_schemas import mixed_family
from repro.workloads.random_sigma import random_element_mask, random_sigma


def s(text, root):
    return parse_subattribute(text, root)


@pytest.fixture()
def root():
    return p("R(A, B, C, D)")


@pytest.fixture()
def sigma(root):
    return DependencySet.parse(root, ["R(A) -> R(B)", "R(C) -> R(D)"])


class TestSigmaEditing:
    def test_add_and_len(self, root):
        session = Session(root)
        assert session.add("R(A) -> R(B)")
        assert not session.add("R(A) -> R(B)")  # duplicate
        assert len(session) == 1
        assert parse_dependency("R(A) -> R(B)", root) in session

    def test_add_validates(self, root):
        session = Session(root)
        foreign = parse_dependency("S(A) -> S(B)", p("S(A, B)"))
        with pytest.raises(Exception):
            session.add(foreign)
        assert len(session) == 0

    def test_retract_requires_membership(self, root, sigma):
        session = Session(root, sigma)
        with pytest.raises(ValueError, match="not a member"):
            session.retract("R(B) -> R(A)")

    def test_retract_returns_member(self, root, sigma):
        session = Session(root, sigma)
        removed = session.retract("R(A) -> R(B)")
        assert removed == parse_dependency("R(A) -> R(B)", root)
        assert len(session) == 1

    def test_sigma_snapshot_tracks_edits(self, root, sigma):
        session = Session(root, sigma)
        assert set(session.sigma) == set(sigma)
        session.retract("R(A) -> R(B)")
        session.add("R(B) -> R(C)")
        assert set(session.sigma) == {
            parse_dependency("R(C) -> R(D)", root),
            parse_dependency("R(B) -> R(C)", root),
        }

    def test_maxsize_validation(self, root):
        with pytest.raises(ValueError, match="maxsize"):
            Session(root, maxsize=0)


class TestQueriesAndCache:
    def test_queries_match_compute_closure(self, root, sigma):
        session = Session(root, sigma)
        expected = compute_closure(session.encoding, s("R(A)", root), sigma)
        assert session.closure("R(A)") == expected.closure
        assert set(session.dependency_basis("R(A)")) == set(
            expected.dependency_basis()
        )
        assert session.implies("R(A) -> R(B)")
        assert not session.implies("R(A) -> R(C)")
        assert not session.is_superkey("R(A)")
        assert session.is_superkey("R(A, C)")

    def test_hit_does_not_run_kernel(self, root, sigma):
        session = Session(root, sigma)
        session.closure("R(A)")
        runs = session.kernel_stats.runs
        session.closure("R(A)")
        assert session.kernel_stats.runs == runs
        assert session.cache_info().hits == 1

    def test_lru_eviction(self, root, sigma):
        session = Session(root, sigma, maxsize=2)
        for x in ("R(A)", "R(B)", "R(C)"):
            session.closure(x)
        info = session.cache_info()
        assert info.computed == 2
        assert info.evictions == 1

    def test_cache_clear_resets(self, root, sigma):
        session = Session(root, sigma)
        session.closure("R(A)")
        session.closure("R(A)")
        session.cache_clear()
        info = session.cache_info()
        assert (info.computed, info.hits) == (0, 0)
        assert session.kernel_stats.runs == 0


class TestIntervalCacheHoldsIntervals:
    def test_closed_lhs_is_not_stored(self, root, sigma):
        session = Session(root, sigma)
        for x in ("R(B)", "R(A, B)", "R(B, D)", "R(A, B, C, D)"):
            assert session.closure(x) == s(x, root)  # every X is closed
        info = session.cache_info()
        assert info.computed == 4
        assert info.plan.entries == 0
        assert session.closure("R(A, B)") == s("R(A, B)", root)
        assert session.cache_info().hits == 1  # answered by the entry

    def test_proper_interval_answers_inside_it(self, root, sigma):
        session = Session(root, sigma)
        assert session.closure("R(A)") == s("R(A, B)", root)
        assert session.cache_info().plan.entries == 1
        runs = session.kernel_stats.runs
        # R(A) ≤ R(A, B) ≤ R(A)⁺: answered without a kernel run
        assert session.closure("R(A, B)") == s("R(A, B)", root)
        plan = session.cache_info().plan
        assert (plan.interval_hits, plan.exact_hits) == (1, 0)
        assert session.kernel_stats.runs == runs
        assert session.cache_info().computed == 1


class TestAddDropsEntries:
    def test_add_then_requery_recomputes(self, root):
        session = Session(root, ["R(A) -> R(B)"])
        assert session.closure("R(A)") == s("R(A, B)", root)
        session.add("R(B) -> R(C)")
        # The cached closure is a fixpoint of the smaller Σ: the add
        # drops it and the next query runs the kernel from X.
        assert session.cached_masks() == frozenset()
        runs = session.kernel_stats.runs
        assert session.closure("R(A)") == s("R(A, B, C)", root)
        assert session.kernel_stats.runs == runs + 1
        assert session.cache_info().warm_starts == 0

    def test_duplicate_add_keeps_the_cache(self, root):
        session = Session(root, ["R(A) -> R(B)"])
        session.closure("R(A)")
        assert not session.add("R(A) -> R(B)")
        runs = session.kernel_stats.runs
        session.closure("R(A)")
        assert session.kernel_stats.runs == runs
        assert session.cache_info().hits == 1

    def test_result_after_add_equals_fresh_session(self, root):
        texts = ["R(A) -> R(B)", "R(B) ->> R(C)", "R(C) -> R(D)"]
        incremental = Session(root, texts[:1])
        for x in ("R(A)", "R(B)", "R(A, C)"):
            incremental.closure(x)
        for text in texts[1:]:
            incremental.add(text)
        fresh = Session(root, texts)
        for x in ("R(A)", "R(B)", "R(A, C)"):
            edited = incremental.result_for(x)
            cold = fresh.result_for(x)
            assert edited.closure_mask == cold.closure_mask, x
            assert edited.blocks == cold.blocks, x

    def test_recompute_after_add_records_the_new_member(self, root):
        session = Session(root, ["R(A) -> R(B)"])
        session.closure("R(A)")
        session.add("R(B) -> R(C)")
        session.closure("R(A)")  # recomputed; the new FD fires
        session.retract("R(B) -> R(C)")
        info = session.cache_info()
        assert info.invalidations == 1  # the entry depends on it


class TestRetractionProvenance:
    def test_exact_eviction_counts(self, root, sigma):
        session = Session(root, sigma)
        session.closure("R(A)")  # fires only R(A) -> R(B)
        session.closure("R(C)")  # fires only R(C) -> R(D)
        runs = session.kernel_stats.runs
        assert runs == 2

        session.retract("R(C) -> R(D)")
        info = session.cache_info()
        assert info.invalidations == 1  # the R(C) entry and nothing else
        assert info.retained == 1       # the R(A) entry survives

        # The retained entry must be an immediate hit: its firing set
        # excludes the retracted dependency, so its fixpoint is intact.
        session.closure("R(A)")
        assert session.kernel_stats.runs == runs
        assert session.cache_info().hits == 1

        # The evicted lhs recomputes against the smaller sigma.
        assert session.closure("R(C)") == s("R(C)", root)
        assert session.kernel_stats.runs == runs + 1

    def test_noop_member_never_evicts(self, root, sigma):
        # R(D) -> R(D) is trivial: it can never fire productively, so
        # retracting it must keep every cache entry.
        session = Session(root, sigma)
        session.add("R(D) -> R(D)")
        session.closure("R(A)")
        session.closure("R(C)")
        runs = session.kernel_stats.runs
        session.retract("R(D) -> R(D)")
        info = session.cache_info()
        assert info.invalidations == 0
        assert info.retained == 2
        session.closure("R(A)")
        session.closure("R(C)")
        assert session.kernel_stats.runs == runs

    def test_retract_then_readd_recomputes(self, root, sigma):
        session = Session(root, sigma)
        session.closure("R(A)")
        session.retract("R(C) -> R(D)")  # retained (never fired for R(A))
        assert session.is_cached(session.attribute_mask("R(A)"))
        session.add("R(C) -> R(D)")
        # Re-adding is an add like any other: the entry goes.
        assert not session.is_cached(session.attribute_mask("R(A)"))
        runs = session.kernel_stats.runs
        assert session.closure("R(A)") == s("R(A, B)", root)
        assert session.kernel_stats.runs == runs + 1

    @pytest.mark.parametrize("engine", ["worklist", "naive"])
    def test_retained_fired_indices_follow_the_retract(self, root, engine):
        texts = ["R(B) -> R(C)", "R(A) -> R(D)", "R(C) ->> R(B)"]
        session = Session(root, texts, engine=engine)
        mask = session.encoding.encode(s("R(A)", root))
        assert session.result_for_mask(mask).fired == {1}   # R(A) -> R(D)
        session.retract("R(B) -> R(C)")                     # never fired
        assert session.cache_info().retained == 1
        # R(A) -> R(D) is index 0 now; index 1 is the MVD.
        assert session.result_for_mask(mask).fired == {0}

    def test_eviction_is_sound_after_retraction(self, root):
        texts = ["R(A) -> R(B)", "R(B) -> R(C)", "R(C) -> R(D)"]
        session = Session(root, texts)
        assert session.closure("R(A)") == root  # all three fire
        session.retract("R(B) -> R(C)")
        assert session.cache_info().invalidations == 1
        assert session.closure("R(A)") == s("R(A, B)", root)


class TestEngines:
    def test_engine_switch_mid_session(self, root, sigma):
        session = Session(root, sigma)
        first = session.result_for("R(A)")
        session.set_engine("reference")
        assert session.engine.name == "reference"
        # Cached results stay valid across the switch.
        assert session.result_for("R(A)") is first

    def test_reference_engine_falls_back_to_cold_recompute(self, root):
        session = Session(root, ["R(A) -> R(B)"], engine="reference")
        session.closure("R(A)")
        session.add("R(B) -> R(C)")
        assert session.closure("R(A)") == s("R(A, B, C)", root)
        assert session.cache_info().warm_starts == 0

    def test_all_engines_agree_after_edits(self, root):
        texts = ["R(A) -> R(B)", "R(B) ->> R(C)", "R(A) ->> R(B, C)"]
        results = {}
        for engine in ("worklist", "naive", "reference"):
            session = Session(root, texts[:2], engine=engine)
            session.closure("R(A)")
            session.add(texts[2])
            session.retract(texts[0])
            result = session.result_for("R(A)")
            results[engine] = (result.closure_mask, result.blocks)
        assert len(set(results.values())) == 1, results

    def test_unknown_engine_rejected(self, root):
        with pytest.raises(ValueError, match="unknown kernel"):
            Session(root, engine="quantum")


class TestDescribeStats:
    def test_describe_stats_lines(self, root, sigma):
        session = Session(root, sigma)
        session.closure("R(A)")
        session.closure("R(A)")
        text = session.describe_stats()
        assert "session: computed=1 hits=1" in text
        assert "engine=worklist" in text
        assert "|Σ|=2" in text
        assert "kernel:   runs=1" in text
        assert "encoding:" in text

    def test_repr(self, root, sigma):
        session = Session(root, sigma)
        assert "engine='worklist'" in repr(session)


class TestAgainstFreshRecompute:
    """Session-driven membership sweeps equal the one-shot implementation."""

    CORPUS_SIGMAS = [
        ("R(A, B, C)",
         ["R(A) -> R(B)", "R(B) -> R(C)", "R(A) -> R(C)"]),
        ("R(A, B, C)",
         ["R(A) ->> R(B)", "R(A) ->> R(C)", "R(A) -> R(B)"]),
        ("Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
         ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
          "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)",
          "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])"]),
        ("R(A, L[M(B, C)])",
         ["R(A) -> R(L[M(B, λ)])", "R(L[λ]) ->> R(A)",
          "R(A) -> R(L[M(B, C)])"]),
    ]

    @pytest.mark.parametrize("root_text, texts", CORPUS_SIGMAS)
    def test_minimal_cover_matches_one_shot_recompute(self, root_text, texts):
        root = p(root_text)
        sigma = DependencySet.parse(root, texts)
        encoding = BasisEncoding(root)

        def one_shot_implies(candidate, dependency):
            result = compute_closure(encoding, dependency.lhs, candidate)
            rhs_mask = encoding.encode(dependency.rhs)
            if dependency.is_fd:
                return result.implies_fd_rhs(rhs_mask)
            return result.implies_mvd_rhs(rhs_mask)

        kept = list(sigma)
        for dependency in reversed(list(sigma)):
            candidate = DependencySet(
                root, [d for d in kept if d != dependency]
            )
            if one_shot_implies(candidate, dependency):
                kept = list(candidate)

        assert set(minimal_cover(sigma)) == set(kept)

    @pytest.mark.parametrize("root_text, texts", CORPUS_SIGMAS)
    def test_is_redundant_matches_one_shot_recompute(self, root_text, texts):
        root = p(root_text)
        sigma = DependencySet.parse(root, texts)
        encoding = BasisEncoding(root)
        for dependency in sigma:
            rest = DependencySet(root, [d for d in sigma if d != dependency])
            result = compute_closure(encoding, dependency.lhs, rest)
            rhs_mask = encoding.encode(dependency.rhs)
            if dependency.is_fd:
                expected = result.implies_fd_rhs(rhs_mask)
            else:
                expected = result.implies_mvd_rhs(rhs_mask)
            assert is_redundant(sigma, dependency) == expected, dependency


class TestEntryMemory:
    def test_a_cached_entry_stays_small(self):
        # perfbench's problem: |N| = 64, |Σ| = 200.  An entry holds the
        # result and its provenance; nothing in it grows with Σ.
        root = mixed_family(16)
        encoding = BasisEncoding(root)
        sigma = random_sigma(random.Random(0), encoding, 200)
        session = Session(root, sigma, encoding=encoding)
        rng = random.Random(1)
        masks = set()
        while len(masks) < 65:
            masks.add(random_element_mask(rng, encoding, 0.25))
        first, *rest = masks
        session.result_for_mask(first)   # compiles the plan
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for mask in rest:
                session.result_for_mask(mask)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert session.cache_info().computed == 65
        assert (after - before) / len(rest) <= 4096
