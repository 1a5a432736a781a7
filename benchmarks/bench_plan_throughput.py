"""Compiled-plan throughput: one compilation, many membership queries.

The perf claim behind :mod:`repro.core.plan` is that a long-lived
session answering a *stream* of membership queries against one large Σ
should not pay per-query for work that depends only on ``(encoding,
Σ)``.  This benchmark pins that down on a 200-dependency random Σ
(`_workloads.sized_sigma`):

* **baseline** — one cold :func:`repro.core.engine.closure_of_masks_fast`
  run per query over the same compiled plan (compiled once, outside the
  timed region): the kernel cost of every query, with no caching;
* **planned** — a :class:`repro.core.session.Session` whose plan and
  monotone closure-interval cache answer the same stream.

The stream is adversarially favourable to *neither* exact caching nor
cold computes: a handful of seed left-hand sides plus, for each seed,
supersets ``X`` with ``seed ≤ X ≤ seed⁺`` — exactly the shape the
interval rule (``X'⁺ = X⁺`` whenever ``X' ≤ X ≤ X'⁺``) resolves
without touching the kernel.  Identical answers are asserted
query-by-query before anything is timed.

Headline (asserted): **≥ 3x paired-median speedup** for the planned
session over the per-query baseline, plus the interval-hit rate and the
baseline's requeue positions examined (``KernelStats.requeue_scanned``).
Results land in ``BENCH_plan_throughput.json``.

Run:  pytest benchmarks/bench_plan_throughput.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.plan import compile_plan
from repro.core.session import Session

from _timing import cpus, paired_speedup, time_once
from _workloads import sized_sigma

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_plan_throughput.json"

SCALE = 12            # |N| = 48
SIGMA_SIZE = 200      # the "large Σ" the plan amortises over
SEEDS = 6             # cold left-hand sides in the stream
VARIANTS_PER_SEED = 40
SPEEDUP_FLOOR = 3.0


def _build():
    encoding, sigma, _ = sized_sigma(SCALE, SIGMA_SIZE)
    fd_masks = [(encoding.encode(d.lhs), encoding.encode(d.rhs))
                for d in sigma.fds()]
    mvd_masks = [(encoding.encode(d.lhs), encoding.encode(d.rhs))
                 for d in sigma.mvds()]

    # Seed LHSs spread over the basis; for each, superset variants
    # inside [seed, seed⁺] so the interval rule (not exact hits) is
    # what answers the warm part of the stream.
    plan = compile_plan(encoding, fd_masks, mvd_masks)
    stream: list[int] = []
    step = max(1, encoding.size // SEEDS)
    for s in range(SEEDS):
        seed = encoding.down_close(1 << (s * step))
        closure, _, _ = closure_of_masks_fast(plan, seed)
        stream.append(seed)
        gained = [i for i in range(encoding.size)
                  if (closure >> i) & 1 and not (seed >> i) & 1]
        for k, bit in enumerate(gained):
            if k >= VARIANTS_PER_SEED:
                break
            stream.append(seed | encoding.down_close(1 << bit))
    return encoding, sigma, fd_masks, mvd_masks, plan, stream


def _measure() -> dict:
    encoding, sigma, fd_masks, mvd_masks, plan, stream = _build()

    compile_s = time_once(compile_plan, encoding, fd_masks, mvd_masks)
    session = Session(encoding.root, sigma, encoding=encoding)

    # Same answers through both paths, query by query.
    for mask in stream:
        cold, _, _ = closure_of_masks_fast(plan, mask)
        assert session.closure_mask_for(mask) == cold, format(mask, "#x")

    def baseline():
        for mask in stream:
            closure_of_masks_fast(plan, mask)

    def planned():
        session.cache_clear()
        for mask in stream:
            session.closure_mask_for(mask)

    base_s, plan_s, speedup = paired_speedup(baseline, planned)

    # Interval-hit rate of the last planned round (cache_clear resets
    # the counters, so this is exactly one stream's worth).
    info = session.cache_info().plan
    answered = info.exact_hits + info.interval_hits + info.misses

    # Requeue positions the baseline's cold runs examine.
    stats = KernelStats()
    for mask in stream:
        closure_of_masks_fast(plan, mask, stats=stats)

    return {
        "sigma": len(fd_masks) + len(mvd_masks),
        "folded": len(plan),
        "size": encoding.size,
        "stream": len(stream),
        "plan_compile_s": compile_s,
        "baseline_stream_s": base_s,
        "planned_stream_s": plan_s,
        "paired_median_speedup": speedup,
        "interval_hits": info.interval_hits,
        "interval_hit_rate": info.interval_hits / answered if answered else 0.0,
        "baseline_requeue_scanned": stats.requeue_scanned,
    }


def test_plan_throughput_report(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)

    report = {
        "workload": f"random Σ ({SIGMA_SIZE} deps) membership stream "
                    f"(sized_sigma scale={SCALE})",
        "baseline": "one cold planned kernel run per query",
        "cpus": cpus(),
        "speedup_floor": SPEEDUP_FLOOR,
        **row,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nCompiled-plan membership-stream throughput:")
    print(f"  |Σ|={row['sigma']} (folded {row['folded']}) |N|={row['size']} "
          f"stream={row['stream']} queries")
    print(f"  compile once: {row['plan_compile_s'] * 1e3:.3f} ms")
    print(f"  baseline {row['baseline_stream_s'] * 1e3:9.3f} ms   "
          f"planned {row['planned_stream_s'] * 1e3:9.3f} ms   "
          f"speedup {row['paired_median_speedup']:6.1f}x (paired median)")
    print(f"  interval hits: {row['interval_hits']} "
          f"({row['interval_hit_rate'] * 100:.1f}% of stream)")
    print(f"  baseline requeue positions scanned: "
          f"{row['baseline_requeue_scanned']}")
    print(f"report written to {JSON_PATH.name}")

    assert row["paired_median_speedup"] >= SPEEDUP_FLOOR, row
    assert row["interval_hits"] > 0, row
