"""Deterministic counts and the exact-repeat self-check.

A run of one seed must produce the same work counts every time: kernel
runs, passes, firings and requeue scans; session hits, computes,
warm-starts and interval hits; WAL records and bytes; compactions;
records applied.  Counts that depend on timing (``interval`` fsyncs,
long-poll wake-ups, replication batch sizes) are left out of the check.

Two checks use them.  A ``--trace 1`` run serves the script twice, as
subprocesses and in-process, and both must agree.  Every run also logs
its counts under ``.perfbench-counts/``, keyed by a hash of the sources,
and must agree with any earlier run of the same seed and size.
"""

from __future__ import annotations

import json
import os
from typing import Any

from workloads import SESSION

_OPS = ("open", "implies", "closure", "basis", "add", "retract")
_SERVER = (*(f"serve.requests.{op}" for op in _OPS), "serve.errors",
           "store.appends", "store.append_bytes", "replicate.applied")
#: Compaction points of the primary follow its record count; a
#: follower compacts after whole replication batches, whose size is
#: timing, so only the primary's compaction counts are exact.
_PRIMARY = ("store.compactions", "store.snapshots", "store.snapshot_bytes")
_SESSION = ("sigma", "generation", "computed", "hits", "warm_starts",
            "invalidations", "retained")


def from_metrics(node_metrics: list[dict[str, Any]]) -> dict[str, int]:
    """The exact counts in each node's ``metrics`` payload."""
    found: dict[str, int] = {}
    for index, payload in enumerate(node_metrics):
        node = "primary" if index == 0 else f"replica{index}"
        counters = payload["server"]["counters"]
        names = _SERVER + (_PRIMARY if index == 0 else ())
        for name in names:
            found[f"{node}.{name}"] = counters.get(name, 0)
        session = payload["sessions"].get(SESSION, {})
        for name in _SESSION:
            found[f"{node}.session.{name}"] = session.get(name, 0)
    return found


def compare(first: dict[str, int], second: dict[str, int],
            first_name: str, second_name: str) -> list[str]:
    """Mismatches between two count sets, on the keys both hold."""
    return [f"count {key} differs: {first[key]} in the {first_name}, "
            f"{second[key]} in the {second_name}"
            for key in sorted(first.keys() & second.keys())
            if first[key] != second[key]]


def check_log(directory: str, digest: str, key: str,
              counts: dict[str, int]) -> list[str]:
    """Compare with the logged counts of earlier runs; log new keys."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{digest}-{key}.json")
    logged: dict[str, int] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            logged = json.load(handle)
    problems = compare(logged, counts, "logged earlier run", "this run")
    if not problems and counts.keys() - logged.keys():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**logged, **counts}, handle, sort_keys=True)
    return problems
