"""Unit tests for the worklist kernel (repro.core.engine)."""

import pytest

from repro import Schema
from repro.attributes import (BasisEncoding, parse_attribute,
                              parse_subattribute)
from repro.attributes.nested import Flat, ListAttr, Record
from repro.core.closure import closure_of_masks, compute_closure
from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.plan import compile_plan
from repro.core.trace import TraceRecorder


@pytest.fixture()
def pubcrawl():
    schema = Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    sigma = schema.dependencies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
    return schema, sigma


class TestBitIdentical:
    def test_paper_example(self, pubcrawl):
        schema, sigma = pubcrawl
        enc = schema.encoding
        for x_text in ("Pubcrawl(Person)", "Pubcrawl(Visit[λ])",
                       "Pubcrawl(Visit[Drink(Beer)])"):
            x = enc.encode(schema.attribute(x_text))
            fast = compute_closure(enc, x, sigma, kernel="worklist")
            naive = compute_closure(enc, x, sigma, kernel="naive")
            assert fast.closure_mask == naive.closure_mask
            assert fast.blocks == naive.blocks

    def test_non_cc_closed_initial_complement(self):
        # Regression: X^C here contains a basis attribute without its
        # whole up-set, so it is *not* CC-closed; the naive FD step
        # normalises every block whenever Ṽ ≠ λ, and the worklist kernel
        # must do the same even though no possessed bit meets Ṽ.
        root = ListAttr("L1", Record("R2", (
            ListAttr("L3", Flat("A4")),
            Record("R5", (Flat("A6"), Flat("A7"))),
            Record("R8", (Flat("A9"), Flat("A10"))),
        )))
        enc = BasisEncoding(root)
        fds = [(120, 21)]
        naive = closure_of_masks(enc, 29, fds, [])
        fast = closure_of_masks_fast(compile_plan(enc, fds, []), 29)
        assert naive[0] == fast[0]
        assert naive[1] == fast[1]

    def test_empty_sigma(self, pubcrawl):
        schema, _ = pubcrawl
        enc = schema.encoding
        sigma = schema.dependencies()
        x = enc.encode(schema.attribute("Pubcrawl(Person)"))
        fast = compute_closure(enc, x, sigma, kernel="worklist")
        naive = compute_closure(enc, x, sigma, kernel="naive")
        assert (fast.closure_mask, fast.blocks) == (
            naive.closure_mask, naive.blocks)

    def test_full_and_empty_lhs(self, pubcrawl):
        schema, sigma = pubcrawl
        enc = schema.encoding
        for x in (0, enc.full):
            fast = compute_closure(enc, x, sigma, kernel="worklist")
            naive = compute_closure(enc, x, sigma, kernel="naive")
            assert (fast.closure_mask, fast.blocks) == (
                naive.closure_mask, naive.blocks)


class TestKernelSelection:
    def test_unknown_kernel_rejected(self, pubcrawl):
        schema, sigma = pubcrawl
        with pytest.raises(ValueError, match="unknown kernel"):
            compute_closure(schema.encoding, 0, sigma, kernel="quantum")

    def test_tracing_forces_naive(self, pubcrawl):
        schema, sigma = pubcrawl
        with pytest.raises(ValueError, match="naive"):
            compute_closure(schema.encoding, 0, sigma,
                            trace=TraceRecorder(), kernel="worklist")

    def test_tracing_works_with_auto(self, pubcrawl):
        schema, sigma = pubcrawl
        trace = TraceRecorder()
        x = schema.encoding.encode(schema.attribute("Pubcrawl(Person)"))
        result = compute_closure(schema.encoding, x, sigma, trace=trace)
        assert result.passes >= 1
        assert trace.steps


class TestKernelStats:
    def test_counters_populated(self, pubcrawl):
        schema, sigma = pubcrawl
        stats = KernelStats()
        x = schema.encoding.encode(schema.attribute("Pubcrawl(Person)"))
        compute_closure(schema.encoding, x, sigma, stats=stats)
        assert stats.runs == 1
        assert stats.passes >= 1
        assert stats.firings >= len(list(sigma))

    def test_accumulates_and_resets(self, pubcrawl):
        schema, sigma = pubcrawl
        stats = KernelStats()
        x = schema.encoding.encode(schema.attribute("Pubcrawl(Person)"))
        compute_closure(schema.encoding, x, sigma, stats=stats)
        compute_closure(schema.encoding, x, sigma, stats=stats)
        assert stats.runs == 2
        stats.reset()
        assert stats.runs == 0 and stats.firings == 0

    def test_as_dict_and_repr(self):
        stats = KernelStats()
        dumped = stats.as_dict()
        assert set(dumped) == set(KernelStats.__slots__)
        assert "runs=0" in repr(stats)


class TestColdDismissal:
    """A cold run dismisses the L5 no-ops of generation 1 in bulk, up to
    the first state change, and still counts every firing."""

    def test_switch_mid_generation_one(self, monkeypatch):
        # R(A, B, C, D) from X = A: DB = {A, BCD}.  Σ in firing order:
        #   0  D -> C    uncovered: dismissed (Ū = BCD, Ṽ = λ, skipped)
        #   1  A -> B    covered: productive, X_new = AB, BCD -> B | CD;
        #                wakes 0 and 1 (2 and 3 are still queued)
        #   2  B -> C    uncovered at the start, now productive with
        #                Ū = λ: X_new = ABC, CD -> C | D; wakes 2
        #   3  C ->> D   covered by now: a no-op
        # Generation 2 re-fires 0 (Ū = D, a no-op), 1 and 2.
        root = parse_attribute("R(A, B, C, D)")
        enc = BasisEncoding(root)
        a, b, c, d = (enc.encode(parse_subattribute(f"R({name})", root))
                      for name in "ABCD")
        plan = compile_plan(enc, [(d, c), (a, b), (b, c)], [(c, d)])
        calls = []
        pseudo_difference = BasisEncoding.pseudo_difference

        def counting(self, left, right):
            calls.append((left, right))
            return pseudo_difference(self, left, right)

        monkeypatch.setattr(BasisEncoding, "pseudo_difference", counting)
        stats = KernelStats()
        fired: set[int] = set()
        result = closure_of_masks_fast(plan, a, stats=stats, fired=fired)
        assert result == (a | b | c, frozenset({a, b, c, d}), 2)
        assert fired == {1, 2}
        assert stats.as_dict() == {
            "runs": 1, "passes": 2, "firings": 7, "requeues": 3,
            "requeue_scanned": 7, "skipped_firings": 1,
            "u_bar_lookups": 2, "u_bar_blocks": 2, "block_splits": 0,
            "db_rewrites": 2, "dirty_bits": 5,
        }
        # The two rewrites and the Ṽ of 0 in generation 2; firing the
        # dismissed 0 in generation 1 would make a fourth call.
        assert len(calls) == 3

        # With an all-zero LHS index nothing is dismissed: the full
        # queue fires every position one by one, and agrees.
        oracle_stats = KernelStats()
        oracle_fired: set[int] = set()
        lhs_index = plan.lhs_index
        plan.lhs_index = [0] * len(lhs_index)
        try:
            oracle = closure_of_masks_fast(
                plan, a, stats=oracle_stats, fired=oracle_fired)
        finally:
            plan.lhs_index = lhs_index
        assert (oracle, oracle_fired) == (result, fired)
        assert oracle_stats.as_dict() == stats.as_dict()
