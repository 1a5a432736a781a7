"""Steadiness report: ``python3 perfbench/run.py --repeat N [--seed S]``.

Runs every workload ``N`` times on seed ``S`` and ``N`` times on the
held-out seed ``S + 1``, interleaved (each round visits every workload
and seed once), each run a fresh ``run.py`` process.  It prints, per
workload, seed and end-to-end metric, the median, the quartiles and the
spread ``(q3 - q1) / median`` that the bounds in BENCHMARK.json are set
against.  Interleaving spreads slow drift of the host over all cells
instead of letting it land on one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from statistics import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def _one(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed "
                           f"({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def report(args, workloads) -> int:
    cells: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    seeds = (args.seed, args.seed + 1)
    failures = 0
    for round_index in range(args.repeat):
        for seed in seeds:
            for workload in workloads:
                result = _one(workload, seed, args.seconds)
                failures += result["failed"] + (not result["correct"])
                for name, entry in result["metrics"].items():
                    cells[workload, seed][name].append(entry["value"])
        print(f"round {round_index + 1}/{args.repeat} done",
              file=sys.stderr, flush=True)
    print(f"{'workload':16} {'seed':>5} {'metric':16} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7}")
    for (workload, seed), metrics in sorted(cells.items()):
        for name, values in metrics.items():
            mid, q1, q3, width = spread(values)
            print(f"{workload:16} {seed:>5} {name:16} {mid:11.5g} "
                  f"{q1:11.5g} {q3:11.5g} {width:7.1%}")
    print(f"failed requests or checks: {failures}")
    return 1 if failures else 0
