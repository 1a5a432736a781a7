"""Membership throughput: worklist kernel + batch API vs the pre-PR paths.

Two workloads, matching the experiments the optimisation targets:

* **E7 (Theorem 6.4 scaling)** — the deterministic adversarial FD chain
  (`_workloads.chain_problem`), whose reversed firing order drives the
  naive kernel's REPEAT count to ~|Σ|; the worklist kernel re-fires only
  dependencies whose inputs changed.  The worklist kernel runs off a
  plan compiled outside the timed region (compiling is per-Σ set-up,
  paid once per session).  Kernels are timed head-to-head at
  several sizes with the encoding memo caches cleared before each
  measurement (the pre-PR kernel had no memo layer at all, so warm
  caches would flatter the baseline, not the candidate).

* **E19-style query throughput** — a 60-query stream over 3 distinct
  left-hand sides (the `bench_reasoner_cache.py` shape) on the |N| = 48
  `mixed_family(12)` schema with a 24-dependency random Σ, answered the
  pre-PR way (one stateless naive-kernel closure per query, encoding
  memo caches cleared per query — the pre-PR encoding had no memo
  layer, and in-run warmth still flatters this baseline, so measured
  speedups are *under*-estimates) and through
  :class:`repro.batch.BulkReasoner` (one worklist closure per distinct
  LHS, everything else from the cache).  The original small Gene-schema
  stream is per-query-overhead bound (parse/validate dominates both
  paths), which is why the throughput criterion is assessed at a scale
  where closures carry the cost.

The measured speedups, together with the worklist kernel's
instrumentation counters, are written to
``BENCH_membership_throughput.json`` at the repository root; the shape
test asserts the ≥3× reproduction criterion on both workloads.

Run:  pytest benchmarks/bench_membership_throughput.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.batch import BulkReasoner
from repro.core.closure import closure_of_masks, compute_closure
from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.plan import compile_plan

from _timing import cpus
from _workloads import chain_problem, sized_sigma

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_membership_throughput.json"

CHAIN_SCALES = (16, 24, 32)
SPEEDUP_TARGET = 3.0


def _best_of(fn, *args, budget_s: float = 0.5, setup=None) -> float:
    """Best-of-N wall time with an adaptive round count."""
    if setup is not None:
        setup()
    start = time.perf_counter()
    fn(*args)
    first = time.perf_counter() - start
    rounds = max(3, min(200, int(budget_s / max(first, 1e-9))))
    best = first
    for _ in range(rounds):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_chain(stats: KernelStats) -> list[dict]:
    rows = []
    for scale in CHAIN_SCALES:
        encoding, x_mask, fd_masks, mvd_masks = chain_problem(scale)
        plan = compile_plan(encoding, fd_masks, mvd_masks)
        naive = closure_of_masks(encoding, x_mask, fd_masks, mvd_masks)
        fast = closure_of_masks_fast(plan, x_mask, stats=stats)
        assert naive[0] == fast[0] and naive[1] == fast[1], scale

        clear = encoding.cache_clear
        naive_s = _best_of(closure_of_masks, encoding, x_mask, fd_masks,
                           mvd_masks, setup=clear)
        fast_s = _best_of(closure_of_masks_fast, plan, x_mask, setup=clear)
        rows.append({
            "scale": scale,
            "size": encoding.size,
            "naive_s": naive_s,
            "worklist_s": fast_s,
            "speedup": naive_s / fast_s,
        })
    return rows


def _e19_workload():
    """60 queries over 3 distinct LHSs on the |N| = 48 random-Σ schema."""
    from repro.dependencies.dependency import (
        FunctionalDependency,
        MultivaluedDependency,
    )

    encoding, sigma, _ = sized_sigma(12, 24)
    lhs_masks = [
        encoding.down_close(1),
        encoding.down_close(1 << (encoding.size // 2)),
        encoding.down_close((1 << (encoding.size - 1)) | 1),
    ]
    rhs_masks = [
        encoding.down_close(((1 << (3 + 2 * k)) - 1) & encoding.full)
        for k in range(10)
    ]
    queries = []
    for lhs_mask in lhs_masks:
        lhs = encoding.decode(lhs_mask)
        for rhs_mask in rhs_masks:
            rhs = encoding.decode(rhs_mask)
            queries.append((FunctionalDependency(lhs, rhs), lhs_mask, rhs_mask))
            queries.append((MultivaluedDependency(lhs, rhs), lhs_mask, rhs_mask))
    return encoding, sigma, queries


def _measure_throughput() -> dict:
    from repro import Schema
    from repro.dependencies.dependency import FunctionalDependency

    encoding, sigma, queries = _e19_workload()

    def baseline() -> int:
        # Pre-PR shape: one stateless naive-kernel closure per query.
        # The per-query cache_clear (of the double-complement memo, the
        # encoding's only one) models the pre-PR encoding, which had no
        # memo layer (in-run warmth still makes this baseline
        # faster than the real pre-PR code, so the speedup reported
        # here is an under-estimate).
        answered = 0
        for dependency, lhs_mask, rhs_mask in queries:
            encoding.cache_clear()
            result = compute_closure(encoding, lhs_mask, sigma, kernel="naive")
            if isinstance(dependency, FunctionalDependency):
                answered += result.implies_fd_rhs(rhs_mask)
            else:
                answered += result.implies_mvd_rhs(rhs_mask)
        return answered

    schema = Schema(encoding.root)

    def batched() -> int:
        bulk = BulkReasoner(schema, sigma)
        return sum(bulk.implies_all([q for q, _, _ in queries]))

    assert baseline() == batched()
    baseline_s = _best_of(baseline)
    batch_s = _best_of(batched, setup=encoding.cache_clear)
    return {
        "queries": len(queries),
        "distinct_lhs": len({lhs_mask for _, lhs_mask, _ in queries}),
        "size": encoding.size,
        "baseline_s": baseline_s,
        "batch_s": batch_s,
        "speedup": baseline_s / batch_s,
        "batch_queries_per_s": len(queries) / batch_s,
    }


def test_membership_throughput_report(benchmark):
    stats = KernelStats()

    def sweep():
        return _measure_chain(stats), _measure_throughput()

    chain_rows, throughput = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report = {
        "experiments": {"e7_chain": chain_rows, "e19_throughput": throughput},
        "cpus": cpus(),
        "speedup_target": SPEEDUP_TARGET,
        "kernel_stats": stats.as_dict(),
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nE7 chain (naive kernel vs worklist kernel, cold memo caches):")
    for row in chain_rows:
        print(f"  scale={row['scale']:3d} |N|={row['size']:4d} "
              f"naive={row['naive_s'] * 1e3:8.2f}ms "
              f"worklist={row['worklist_s'] * 1e3:8.2f}ms "
              f"speedup={row['speedup']:5.1f}x")
    print(f"E19 throughput ({throughput['queries']} queries, "
          f"{throughput['distinct_lhs']} distinct LHSs): "
          f"stateless-naive={throughput['baseline_s'] * 1e3:.2f}ms "
          f"batch={throughput['batch_s'] * 1e3:.2f}ms "
          f"speedup={throughput['speedup']:.1f}x")
    print(f"report written to {JSON_PATH.name}")

    # The reproduction criterion: ≥3× on the headline size of each
    # workload (smaller chain scales have less re-firing to elide).
    assert chain_rows[-1]["speedup"] >= SPEEDUP_TARGET, chain_rows
    assert throughput["speedup"] >= SPEEDUP_TARGET, throughput
