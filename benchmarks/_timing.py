"""Shared wall-clock measurement helpers for the benchmark suite.

Every benchmark that hand-rolls ``time.perf_counter()`` loops drifts
toward its own statistics; these helpers keep the suite on two agreed
conventions:

* **best-of / median-of** for single functions — ``best_of`` amortises
  an adaptive round count into a fixed wall budget and reports the
  minimum (the classic "fastest observed = least noise" estimator),
  while ``median_of`` is the robust choice for sub-microsecond
  primitives where the minimum underestimates steady-state cost.
* **paired comparison** for A/B claims — alternating rounds cancel the
  drift a sequential comparison is exposed to (cache warm-up,
  frequency scaling, noisy neighbours), and the *median of per-round
  differences/ratios* resists the asymmetric scheduler spikes that can
  skew independent minima by a few percent on shared machines.
"""

from __future__ import annotations

import os
import time
from statistics import median


def cpus() -> int:
    """CPUs this process may run on (recorded in every report)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def time_once(function, *args) -> float:
    """One wall-clock timing of ``function(*args)`` in seconds."""
    start = time.perf_counter()
    function(*args)
    return time.perf_counter() - start


def best_of(function, *args, budget_s: float = 0.8) -> float:
    """Best-of-N wall time with an adaptive round count.

    The first (warm-up) call sizes the round count so the whole
    measurement stays near ``budget_s`` seconds, clamped to [5, 400]
    rounds.
    """
    first = time_once(function, *args)
    rounds = max(5, min(400, int(budget_s / max(first, 1e-9))))
    best = first
    for _ in range(rounds):
        best = min(best, time_once(function, *args))
    return best


def median_of(function, *args, repeats: int = 200) -> float:
    """Median wall time over a fixed number of repeats.

    Preferred over :func:`best_of` for primitives so fast that the
    minimum reflects timer granularity rather than the operation.
    """
    samples = sorted(time_once(function, *args) for _ in range(repeats))
    return samples[len(samples) // 2]


def ab_compare(fn_a, fn_b, args,
               budget_s: float = 1.5) -> tuple[float, float, float]:
    """Interleaved paired comparison of two equivalent functions.

    Returns ``(best_a, best_b, median_diff)`` where ``median_diff`` is
    median(t_b - t_a) over the paired rounds — the statistic to quote
    when claiming "B costs X% over A".
    """
    first = time_once(fn_a, *args)
    rounds = max(10, min(400, int(budget_s / (2 * max(first, 1e-9)))))
    times_a: list[float] = []
    times_b: list[float] = []
    for _ in range(rounds):
        times_a.append(time_once(fn_a, *args))
        times_b.append(time_once(fn_b, *args))
    diffs = [b - a for a, b in zip(times_a, times_b)]
    return min(times_a), min(times_b), median(diffs)


def paired_speedup(fn_slow, fn_fast, args=(), *,
                   rounds: int = 7) -> tuple[float, float, float]:
    """Interleaved paired speedup claim: how many times faster is B?

    Runs ``fn_slow`` and ``fn_fast`` alternately for ``rounds`` paired
    rounds and returns ``(median_slow, median_fast, median_ratio)``
    where ``median_ratio`` is the median of the per-round
    ``t_slow / t_fast`` ratios — a paired statistic, so a background
    spike that hits one round inflates one ratio, not the headline.
    """
    ratios: list[float] = []
    times_slow: list[float] = []
    times_fast: list[float] = []
    for _ in range(rounds):
        slow = time_once(fn_slow, *args)
        fast = time_once(fn_fast, *args)
        times_slow.append(slow)
        times_fast.append(fast)
        ratios.append(slow / max(fast, 1e-12))
    return median(times_slow), median(times_fast), median(ratios)


def paired_measure(measure_a, measure_b, *,
                   rounds: int = 7) -> tuple[float, float, float]:
    """Interleaved paired rounds of two measurements of any unit.

    ``measure_a()`` and ``measure_b()`` each return one sample (a CPU
    time per request, say) and run alternately for ``rounds`` rounds.
    Returns ``(median_a, median_b, median_diff)`` where ``median_diff``
    is the median of the per-round differences ``b - a``.
    """
    samples_a: list[float] = []
    samples_b: list[float] = []
    for _ in range(rounds):
        samples_a.append(measure_a())
        samples_b.append(measure_b())
    diffs = [b - a for a, b in zip(samples_a, samples_b)]
    return median(samples_a), median(samples_b), median(diffs)
