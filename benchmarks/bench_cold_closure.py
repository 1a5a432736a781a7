"""Does a cold closure cost more on a long-running server?

A server answers every never-seen left-hand side with one run of the
closure kernel.  Whatever per-encoding state the kernel keeps (the
encoding's operation memos) lives as long as the session, so a memo
whose misses get dearer with the memo's history makes cold queries
slower the longer the server runs.  This benchmark measures that
directly on perfbench's Σ shape: one random 200-dependency Σ over
``mixed_family(16)`` (``|N|`` = 64).

* The *aged* session has already served ``AGE`` distinct cold
  left-hand sides through ``Session.result_for_mask``.
* Each round builds a *fresh* session over the same Σ (own encoding,
  untimed) and draws ``PROBES`` left-hand sides neither session has
  seen.

Each probe runs ``closure_of_masks_fast`` once on each session's plan,
timed with ``_timing.time_once`` and in alternating order, and both
answers are asserted identical.  A round's ratio is the median aged ms
over the median fresh ms; the headline is the median ratio over the
rounds (a paired statistic: both sessions see the same probes), and it
must stay at or below ``MAX_RATIO``.

The report also counts the encoding's ``double_complement`` calls (memo
hits plus misses) per fresh cold closure, and the aged session's memo
size.  The kernel decides ``MaxB`` singleton blocks from the encoding
alone, so only the few other blocks are ever double-complemented: the
count must stay at or below ``MAX_DC_CALLS``.  A kernel that rewrites
every singleton on every FD firing makes about 1,300.

It also counts the ``BasisEncoding.pseudo_difference`` calls per fresh
cold closure, in a separate untimed pass over the same probes.  A cold
run dismisses the firings of the dependencies whose left-hand side
``X`` does not cover (identity L5 of :mod:`repro.core.engine`), so only
the few covered or productive firings call ``∸``: the count must stay
at or below ``MAX_PD_CALLS``.  A kernel that fires every dependency one
by one makes about 200 on this Σ.

The same untimed pass counts the steps of ``iter_bits`` (one per set bit
a Python loop walks) per fresh cold closure, in both
:mod:`repro.attributes.encoding` and :mod:`repro.core.engine`.
Possession is one set difference (``x & ~complement(x)``) and walks no
bits, so the count must stay at or below ``MAX_BIT_STEPS``; a
``possessed`` that loops over the bits of its mask makes about 180.
All three counts are deterministic, so their gates hold on any machine.
Results land in ``BENCH_cold_closure.json``.

Run:  pytest benchmarks/bench_cold_closure.py -s --benchmark-disable
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from statistics import median

from repro.attributes import encoding as encoding_module
from repro.attributes.encoding import BasisEncoding, iter_bits
from repro.core import engine as engine_module
from repro.core.engine import closure_of_masks_fast
from repro.core.session import Session
from repro.workloads.random_schemas import mixed_family
from repro.workloads.random_sigma import random_element_mask, random_sigma

from _timing import cpus, time_once

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_cold_closure.json"

SCALE = 16            # mixed_family(16): |N| = 64
SIGMA_SIZE = 200
AGE = 3000            # distinct cold LHSs the aged session has served
ROUNDS = 7            # fresh sessions, one per round
PROBES = 20           # unseen LHSs per round
MAX_RATIO = 1.25      # aged / fresh median cold-closure ms
MAX_DC_CALLS = 100    # double_complement calls per fresh cold closure
MAX_PD_CALLS = 20     # pseudo_difference calls per fresh cold closure
MAX_BIT_STEPS = 120   # iter_bits steps per fresh cold closure


def _fresh_masks(rng: random.Random, encoding: BasisEncoding,
                 seen: set[int], count: int) -> list[int]:
    masks = []
    while len(masks) < count:
        mask = random_element_mask(rng, encoding, 0.25)
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


def _untimed_counts(plan, masks: list[int]) -> tuple[int, int]:
    """``(∸ calls, iter_bits steps)`` made by one cold closure of each
    mask over ``plan``."""
    calls = steps = 0
    original = BasisEncoding.pseudo_difference

    def counting(self, left, right):
        nonlocal calls
        calls += 1
        return original(self, left, right)

    def counting_bits(mask):
        nonlocal steps
        for index in iter_bits(mask):
            steps += 1
            yield index

    BasisEncoding.pseudo_difference = counting
    encoding_module.iter_bits = engine_module.iter_bits = counting_bits
    try:
        for mask in masks:
            closure_of_masks_fast(plan, mask)
    finally:
        BasisEncoding.pseudo_difference = original
        encoding_module.iter_bits = engine_module.iter_bits = iter_bits
    return calls, steps


def _measure() -> dict:
    root = mixed_family(SCALE)
    sigma = list(random_sigma(random.Random(0), BasisEncoding(root),
                              SIGMA_SIZE))
    aged = Session(root, sigma, maxsize=512)
    encoding = aged.encoding
    rng = random.Random(16)
    seen: set[int] = set()
    for mask in _fresh_masks(rng, encoding, seen, AGE):
        aged.result_for_mask(mask)
    aged_plan = aged.plan

    ratios: list[float] = []
    fresh_ms: list[float] = []
    aged_ms: list[float] = []
    fresh_dc_calls = 0
    fresh_pd_calls = 0
    fresh_bit_steps = 0
    for round_index in range(ROUNDS):
        fresh_plan = Session(root, sigma).plan
        fresh_totals = fresh_plan.encoding.cache_totals
        fresh_times: list[float] = []
        aged_times: list[float] = []
        probes = _fresh_masks(rng, encoding, seen, PROBES)
        for probe, mask in enumerate(probes):
            answers = {}
            order = (("fresh", fresh_plan, fresh_times),
                     ("aged", aged_plan, aged_times))
            if (round_index + probe) % 2:
                order = order[::-1]
            for name, plan, times in order:
                def run(plan=plan, name=name):
                    answers[name] = closure_of_masks_fast(plan, mask)[:2]
                before = sum(fresh_totals())
                times.append(time_once(run) * 1e3)
                if name == "fresh":
                    fresh_dc_calls += sum(fresh_totals()) - before
            assert answers["fresh"] == answers["aged"], mask
        calls, steps = _untimed_counts(fresh_plan, probes)
        fresh_pd_calls += calls
        fresh_bit_steps += steps
        fresh_ms.append(median(fresh_times))
        aged_ms.append(median(aged_times))
        ratios.append(aged_ms[-1] / fresh_ms[-1])

    hits, misses, size, maxsize = encoding.cache_info()["double_complement"]
    return {
        "aged_lhs": AGE,
        "rounds": ROUNDS,
        "probes_per_round": PROBES,
        "fresh_median_ms": median(fresh_ms),
        "aged_median_ms": median(aged_ms),
        "aged_over_fresh": median(ratios),
        "round_ratios": ratios,
        "fresh_double_complement_calls_per_closure":
            fresh_dc_calls / (ROUNDS * PROBES),
        "fresh_pseudo_difference_calls_per_closure":
            fresh_pd_calls / (ROUNDS * PROBES),
        "fresh_iter_bits_steps_per_closure":
            fresh_bit_steps / (ROUNDS * PROBES),
        "aged_double_complement_memo": {
            "hits": hits, "misses": misses, "size": size,
            "maxsize": maxsize},
    }


def test_cold_closure_does_not_age(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)

    report = {
        "workload": f"random Σ of {SIGMA_SIZE} over mixed_family({SCALE}); "
                    f"closure_of_masks_fast on unseen LHSs",
        "fresh": "a new Session per round",
        "aged": f"one Session after {AGE} distinct cold LHSs",
        "max_ratio": MAX_RATIO,
        "max_double_complement_calls": MAX_DC_CALLS,
        "max_pseudo_difference_calls": MAX_PD_CALLS,
        "max_iter_bits_steps": MAX_BIT_STEPS,
        "cpus": cpus(),
        **row,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nCold closure, fresh vs aged session:")
    print(f"  fresh  {row['fresh_median_ms']:7.2f} ms (median)")
    print(f"  aged   {row['aged_median_ms']:7.2f} ms (median, after "
          f"{AGE} cold LHSs)")
    print(f"  aged/fresh {row['aged_over_fresh']:.2f} "
          f"(bound {MAX_RATIO})")
    print(f"  double_complement calls per fresh closure "
          f"{row['fresh_double_complement_calls_per_closure']:.1f} "
          f"(bound {MAX_DC_CALLS}); aged memo size "
          f"{row['aged_double_complement_memo']['size']}")
    print(f"  pseudo_difference calls per fresh closure "
          f"{row['fresh_pseudo_difference_calls_per_closure']:.1f} "
          f"(bound {MAX_PD_CALLS})")
    print(f"  iter_bits steps per fresh closure "
          f"{row['fresh_iter_bits_steps_per_closure']:.1f} "
          f"(bound {MAX_BIT_STEPS})")
    print(f"report written to {JSON_PATH.name}")
    assert row["aged_over_fresh"] <= MAX_RATIO, row
    assert (row["fresh_double_complement_calls_per_closure"]
            <= MAX_DC_CALLS), row
    assert (row["fresh_pseudo_difference_calls_per_closure"]
            <= MAX_PD_CALLS), row
    assert (row["fresh_iter_bits_steps_per_closure"]
            <= MAX_BIT_STEPS), row
