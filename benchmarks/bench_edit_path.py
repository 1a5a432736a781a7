"""What does one Σ edit cost, and one replication poll?

**Plan maintenance.**  perfbench's Σ shape: one random 200-dependency Σ
over ``mixed_family(16)`` (``|N|`` = 64), held by a ``Session`` whose
plan is compiled.  Two edit sequences, each of ``2 · EDITS`` edits
that leave Σ as they found it:

* *churn* — add one dependency not in Σ and retract it again, over a
  pool of ``EDITS`` fresh dependencies (FDs and MVDs alike), as
  perfbench's edit-replicated workload does.  An FD re-fills the
  position its predecessor left.
* *fd_growth* — add ``EDITS`` fresh FDs one after another, so Σ grows
  by a run of FDs behind its live MVDs, then retract them oldest first,
  so each retract leaves a hole in front of live FDs.  This is the
  sequence a plan without spare FD room answers by moving its MVD
  region.

Each sequence is timed two ways, and both start by compiling Σ with
``compile_plan(..., reuse=previous)``, so every call begins from a
freshly compiled plan, which has no free position between its FD and
MVD regions:

* *delta* — ``Session.add`` / ``Session.retract``, each followed by
  ``Session.plan``: the plan is edited in place, and any recompile it
  asks for is paid inside the timing.
* *full* — ``compile_plan(..., reuse=previous)`` of the Σ after each
  edit: what every edit cost when each one recompiled (the session
  bookkeeping that also went with it is left out, which favours
  *full*).

The per-edit figures divide each call by its ``2 · EDITS`` edits, so
both include ``1 / (2 · EDITS)`` of the starting compile.

The two alternate for ``ROUNDS`` paired rounds
(``_timing.paired_speedup``); the headline is the median per-round
ratio delta / full, and it must stay at or below ``MAX_RATIO`` for
both sequences.

**Closures after an edit.**  The same Σ in a ``Session``, and
``EDIT_SET`` left-hand sides ``X``.  Each of ``CYCLES`` cycles adds a
random FD or MVD ``X → Y`` not in Σ, asks for ``X⁺``, retracts it and
asks again, as perfbench's edit-replicated workload does.  An add drops
the session's cached closures, so each probe after one is a kernel run
that changes the state.  In an untimed pass the report counts the
``BasisEncoding.pseudo_difference`` calls per kernel run.  The kernel
dismisses every firing with ``Ū = X_new^C`` in every state (identity L6
of :mod:`repro.core.engine`), not only at the cold start, so only the
few firings that can change the state call ``∸``: the count must stay
at or below ``MAX_PD_CALLS``.  A kernel that dismisses only at the cold
start (L5) makes about 120.  The count is deterministic, so the gate
holds on any machine.

**Replication polls.**  A ``SessionStore`` (``fsync off``) holds
``TAILS`` records in its live segment, and a follower one record behind
asks ``records_since(last_seq - 1)``.  Reported in µs per call next to
``read_segment`` of the same segment, the disk re-read each poll paid
when the tail was not kept in memory.  Results land in
``BENCH_edit_path.json``.

Run:  pytest benchmarks/bench_edit_path.py -s --benchmark-disable
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from pathlib import Path

from repro.attributes.encoding import BasisEncoding
from repro.core.closure import _as_mask_sigma
from repro.core.plan import compile_plan
from repro.core.session import Session
from repro.dependencies.dependency import (FunctionalDependency,
                                          MultivaluedDependency)
from repro.serve.server import SessionManager
from repro.store import SessionStore, read_segment
from repro.workloads.random_schemas import mixed_family
from repro.workloads.random_sigma import (random_dependency,
                                          random_element_mask, random_sigma)

from _timing import cpus, median_of, paired_speedup

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_edit_path.json"

SCALE = 16            # mixed_family(16): |N| = 64
SIGMA_SIZE = 200
EDITS = 64            # adds (and as many retracts) per timed call
ROUNDS = 7            # paired rounds
MAX_RATIO = 0.2       # delta / full compile, per edit
TAILS = (100, 4096)   # records held by the store
SEQUENCES = ("churn", "fd_growth")
EDIT_SET = 8          # left-hand sides the edit cycles draw from
CYCLES = 100          # add/closure/retract/closure cycles
MAX_PD_CALLS = 40     # pseudo_difference calls per kernel run


def _plan_edits(sequence: str) -> dict:
    root = mixed_family(SCALE)
    encoding = BasisEncoding(root)
    sigma = list(random_sigma(random.Random(0), encoding, SIGMA_SIZE))
    session = Session(root, sigma, encoding=encoding)
    session.plan
    rng = random.Random(18)
    pool = []
    while len(pool) < EDITS:
        dependency = random_dependency(rng, encoding)
        if (dependency not in session and dependency not in pool
                and (sequence == "churn" or dependency.is_fd)):
            pool.append(dependency)
    if sequence == "churn":
        edits = [(op, d) for d in pool for op in ("add", "retract")]
    else:
        edits = [("add", d) for d in pool] + [("retract", d) for d in pool]

    members = list(session.dependencies)
    base = _as_mask_sigma(encoding, members)
    tables = []
    for op, dependency in edits:
        if op == "add":
            members.append(dependency)
        else:
            members.remove(dependency)
        tables.append(_as_mask_sigma(encoding, members))
    previous = [session.plan]

    def delta():
        session._retire_plan()
        session.plan
        for op, dependency in edits:
            getattr(session, op)(dependency)
            session.plan

    def full():
        previous[0] = compile_plan(encoding, *base, reuse=previous[0])
        for fds, mvds in tables:
            previous[0] = compile_plan(encoding, fds, mvds,
                                       reuse=previous[0])

    delta()
    full()                                   # warm the encode memos
    full_s, delta_s, full_over_delta = paired_speedup(full, delta,
                                                      rounds=ROUNDS)
    per_edit = len(edits)
    return {
        "edits_per_call": per_edit,
        "delta_us_per_edit": delta_s / per_edit * 1e6,
        "full_compile_us_per_edit": full_s / per_edit * 1e6,
        "delta_over_full": 1 / full_over_delta,
    }


def _edit_closures() -> dict:
    """``∸`` calls per kernel run over add/closure/retract/closure
    cycles (module doc)."""
    root = mixed_family(SCALE)
    encoding = BasisEncoding(root)
    session = Session(root, list(random_sigma(random.Random(0), encoding,
                                               SIGMA_SIZE)),
                      encoding=encoding)
    rng = random.Random(32)
    edit_set = [random_element_mask(rng, encoding, 0.25)
                for _ in range(EDIT_SET)]
    for mask in edit_set:
        session.closure_mask_for(mask)
    calls = 0
    original = BasisEncoding.pseudo_difference

    def counting(self, left, right):
        nonlocal calls
        calls += 1
        return original(self, left, right)

    runs_before = session.kernel_stats.runs
    BasisEncoding.pseudo_difference = counting
    try:
        for _ in range(CYCLES):
            while True:
                x = rng.choice(edit_set)
                cls = (MultivaluedDependency if rng.random() < 0.5
                       else FunctionalDependency)
                dependency = cls(encoding.decode(x), encoding.decode(
                    random_element_mask(rng, encoding, 0.35)))
                if dependency not in session:
                    break
            session.add(dependency)
            session.closure_mask_for(x)
            session.retract(dependency)
            session.closure_mask_for(x)
    finally:
        BasisEncoding.pseudo_difference = original
    runs = session.kernel_stats.runs - runs_before
    return {"cycles": CYCLES, "kernel_runs": runs,
            "pseudo_difference_calls_per_run": calls / runs}


def _polls() -> list[dict]:
    root = mixed_family(SCALE)
    encoding = BasisEncoding(root)
    texts = [dependency.display(root) for dependency in
             random_sigma(random.Random(0), encoding, 50)]
    rows = []
    for tail in TAILS:
        with tempfile.TemporaryDirectory() as data_dir:
            store = SessionStore(data_dir, fsync="off",
                                 compact_records=tail + 1)
            store.start(SessionManager())
            for index in range(tail):
                store.append("add", {"session": "s",
                                     "dependency": texts[index % len(texts)]})
            last = store.last_seq
            assert [r.seq for r in store.records_since(last - 1)] == [last]
            segment = os.path.join(data_dir, store.stats()["segment"])
            poll_s = median_of(store.records_since, last - 1, repeats=2000)
            reread_s = median_of(read_segment, segment, repeats=21)
            store.close()
        rows.append({"records": tail,
                     "records_since_us": poll_s * 1e6,
                     "segment_reread_us": reread_s * 1e6})
    return rows


def _measure() -> dict:
    return {"plan": {sequence: _plan_edits(sequence)
                     for sequence in SEQUENCES},
            "edit_closures": _edit_closures(),
            "records_since": _polls()}


def test_edit_path(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)

    report = {
        "workload": f"random Σ of {SIGMA_SIZE} over mixed_family({SCALE}); "
                    f"churn: add+retract cycles of {EDITS} fresh "
                    f"dependencies; fd_growth: {EDITS} fresh FDs added, "
                    f"then retracted oldest first",
        "delta": "one compile, then Session.add/retract + Session.plan "
                 "per edit (in-place plan edit)",
        "full": "one compile, then compile_plan(reuse=previous) per edit",
        "rounds": ROUNDS,
        "max_ratio": MAX_RATIO,
        "max_pseudo_difference_calls": MAX_PD_CALLS,
        "cpus": cpus(),
        **row,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nEdit path, per edit (paired medians):")
    for sequence, plan in row["plan"].items():
        print(f"  {sequence:9s} delta {plan['delta_us_per_edit']:7.1f} µs, "
              f"full compile {plan['full_compile_us_per_edit']:7.1f} µs, "
              f"delta/full {plan['delta_over_full']:.3f} "
              f"(bound {MAX_RATIO})")
    closures = row["edit_closures"]
    print(f"  closures after an edit: "
          f"{closures['pseudo_difference_calls_per_run']:.1f} ∸ calls per "
          f"kernel run over {closures['kernel_runs']} runs "
          f"(bound {MAX_PD_CALLS})")
    for poll in row["records_since"]:
        print(f"  records_since, {poll['records']:5d} records: "
              f"{poll['records_since_us']:7.1f} µs "
              f"(segment re-read {poll['segment_reread_us']:9.1f} µs)")
    print(f"report written to {JSON_PATH.name}")
    for plan in row["plan"].values():
        assert plan["delta_over_full"] <= MAX_RATIO, plan
    assert closures["pseudo_difference_calls_per_run"] <= MAX_PD_CALLS, (
        closures)
