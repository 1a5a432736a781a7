"""Observability overhead: the disabled path must be (nearly) free.

The obs layer instruments every worklist-kernel run through
:func:`repro.core.closure.closure_of_masks_instrumented`, so the cost
of having the layer *present but disabled* — the default for every
caller that never installs an observer — is the difference between
that entry point and the raw kernel
:func:`repro.core.engine.closure_of_masks_fast`, both run off one plan
compiled outside the timed region.  This benchmark pins it down on the
E7 adversarial FD chain (`_workloads.chain_problem`),
the same workload the throughput benchmark uses, and asserts the
acceptance bar: **<3% wall-clock overhead at scale 32 with sinks
disabled**.

For context the enabled paths are measured too (in-memory sink, JSONL
file sink); those are *not* under the 3% bar — turning tracing on
buys per-run spans and is allowed to cost what it costs.  The
JSONL-sink measurement doubles as the trace artifact: the file is
written to ``BENCH_obs_overhead_trace.jsonl`` at the repository root,
round-trip-validated with :func:`repro.obs.validate_trace`, and
uploaded by the CI benchmark-smoke job.

Results land in ``BENCH_obs_overhead.json``.

Run:  pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.closure import closure_of_masks_instrumented
from repro.core.engine import closure_of_masks_fast
from repro.core.plan import compile_plan
from repro.obs import InMemorySink, JsonlSink, Observer, install, validate_trace

from _timing import ab_compare, best_of, cpus
from _workloads import chain_problem

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_obs_overhead.json"
TRACE_PATH = ROOT / "BENCH_obs_overhead_trace.jsonl"

SCALES = (16, 32)
HEADLINE_SCALE = 32
OVERHEAD_BUDGET_PCT = 3.0


def _measure(scale: int) -> dict:
    encoding, x_mask, fd_masks, mvd_masks = chain_problem(scale)
    plan = compile_plan(encoding, fd_masks, mvd_masks)

    # Same fixpoint through every path (and warm the memo caches so the
    # comparison isolates the wrapper, not cold-cache noise).
    raw = closure_of_masks_fast(plan, x_mask)
    via_obs = closure_of_masks_instrumented(plan, x_mask)
    assert raw == via_obs, scale

    raw_s, disabled_s, median_diff = ab_compare(
        closure_of_masks_fast, closure_of_masks_instrumented, (plan, x_mask),
    )

    with install(Observer([InMemorySink()])):
        memory_s = best_of(closure_of_masks_instrumented, plan, x_mask)

    return {
        "scale": scale,
        "size": encoding.size,
        "sigma": len(fd_masks) + len(mvd_masks),
        "raw_kernel_s": raw_s,
        "obs_disabled_s": disabled_s,
        "obs_memory_sink_s": memory_s,
        # Headline: median of the paired per-round differences, which is
        # robust against the asymmetric scheduler spikes that can skew
        # independent minima by a few percent on shared machines.
        "overhead_disabled_pct": (median_diff / raw_s) * 100.0,
        "overhead_memory_sink_pct": (memory_s / raw_s - 1.0) * 100.0,
    }


def _write_trace_artifact() -> dict:
    """One traced headline-scale run, streamed to JSONL and validated."""
    encoding, x_mask, fd_masks, mvd_masks = chain_problem(HEADLINE_SCALE)
    plan = compile_plan(encoding, fd_masks, mvd_masks)
    start = time.perf_counter()
    with install(Observer([JsonlSink(str(TRACE_PATH))])):
        closure_of_masks_instrumented(plan, x_mask)
    jsonl_s = time.perf_counter() - start
    counts = validate_trace(str(TRACE_PATH))
    return {"path": TRACE_PATH.name, "jsonl_run_s": jsonl_s, **counts}


def test_obs_overhead_report(benchmark):
    rows = benchmark.pedantic(
        lambda: [_measure(scale) for scale in SCALES], rounds=1, iterations=1
    )
    trace = _write_trace_artifact()

    report = {
        "workload": "E7 adversarial FD chain (chain_problem)",
        "cpus": cpus(),
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "rows": rows,
        "trace_artifact": trace,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nObservability overhead on the E7 chain (best-of-N):")
    for row in rows:
        print(f"  scale={row['scale']:3d} |N|={row['size']:4d} "
              f"raw={row['raw_kernel_s'] * 1e3:7.3f}ms "
              f"disabled={row['obs_disabled_s'] * 1e3:7.3f}ms "
              f"({row['overhead_disabled_pct']:+5.2f}%) "
              f"memory-sink={row['obs_memory_sink_s'] * 1e3:7.3f}ms "
              f"({row['overhead_memory_sink_pct']:+5.2f}%)")
    print(f"trace artifact: {trace['path']} "
          f"({trace['spans']} spans, {trace['metrics']} metrics records)")
    print(f"report written to {JSON_PATH.name}")

    headline = next(r for r in rows if r["scale"] == HEADLINE_SCALE)
    assert headline["overhead_disabled_pct"] < OVERHEAD_BUDGET_PCT, headline
    assert trace["spans"] >= 1
