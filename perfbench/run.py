"""The served benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a source checkout.  It starts ``repro serve``
processes from ``src/``, drives one seeded request script through them
in a closed loop, checks every answer and prints one JSON result line:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs
the script against in-process servers with each layer's entry points
wrapped, and reports the per-layer metrics.  ``--repeat N`` is the
steadiness report: it runs every workload N times, interleaved, on the
given seed and a held-out one, and prints each metric's spread.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hot-read")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="steadiness report: N interleaved runs of "
                        "every workload on --seed and a held-out seed")
    return parser.parse_args(argv)


def _tree_digest() -> str:
    """Hash of the program and benchmark sources (keys the count log)."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for directory, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}/repro; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    from harness import HASH_SEED

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing decides set/dict order; fix it for exact counts
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, SRC)
    import workloads

    if args.repeat:
        import steadiness

        return steadiness.report(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    from fleet import COMPACT_RECORDS, FSYNC
    from harness import metric, pin_to_one_cpu
    import counts
    import workloads

    # SIGTERM unwinds through the ``finally`` blocks that stop the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    cpu = pin_to_one_cpu()
    script = workloads.build(args.workload, args.seed, args.seconds)
    runs_dir = os.path.join(ROOT, ".perfbench-runs")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        served = _served(script, workdir)
        problems = list(served["problems"])
        result_counts = dict(served["counts"])
        if args.trace:
            import tracing

            traced = tracing.run(script, os.path.join(workdir, "traced"))
            problems += traced["problems"]
            problems += counts.compare(result_counts, traced["counts"],
                                       "untraced run", "traced run")
            result_counts.update(traced["counts"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass  # another run's directory is still there
    measurement = served["measurement"]
    problems += counts.check_log(
        os.path.join(ROOT, ".perfbench-counts"), _tree_digest(),
        f"{args.workload}-{args.seed}-{args.seconds}", result_counts)

    if args.trace:
        metrics = tracing.layer_metrics(traced, measurement,
                                        served["replica_read_ratio"])
        metrics["host.setup_wall_s"] = metric(served["setup_wall_s"], "s")
    else:
        metrics = {
            "setup_s": metric(served["setup_s"], "s"),
            "cpu_ref_per_req": metric(measurement.cpu_ref_per_req(), "ref"),
            "p50_ref": metric(measurement.latency_ref(50), "ref"),
            "p90_ref": metric(measurement.latency_ref(90), "ref"),
            "server_rss_mb": metric(served["rss_mb"], "MiB"),
        }
    for error in measurement.errors:
        print(f"failed request: {error}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    store = (f", --fsync {FSYNC}, --store-compact-records "
             f"{COMPACT_RECORDS}" if args.workload == "edit-replicated"
             else "")
    print(f"{args.workload} seed={args.seed}: {measurement.attempted} "
          f"requests, {measurement.failed} failed, cpu {cpu}, "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}, "
          f"ref {measurement.ref_ms():.3f} ms{store}", file=sys.stderr)
    print(json.dumps({
        "correct": measurement.failed == 0 and not problems,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    # a count that does not repeat is a broken benchmark: fail loudly
    return 1 if problems else 0


def _served(script, workdir: str) -> dict:
    """Set up ``SETUPS`` times, then measure on the last set-up.

    Each set-up's wall time is divided by the reference time taken on
    both sides of it and scaled by ``NOMINAL_REF_NS``: ``setup_s`` is
    the median set-up in seconds at nominal host speed, and
    ``setup_wall_s`` the median raw wall time.
    """
    from fleet import ProcessFleet
    from harness import (NOMINAL_REF_NS, Measurement, drive,
                         setup_reference_ns)
    import counts

    setups = []
    problems = []
    fleet = None
    try:
        for index in range(SETUPS):
            if fleet is not None:
                fleet.stop()
                fleet = None
            gc.collect()
            ref_before = setup_reference_ns()
            started = time.perf_counter()
            fleet = ProcessFleet(script, ROOT,
                                 os.path.join(workdir, f"s{index}"))
            wall = time.perf_counter() - started
            ref = (ref_before + setup_reference_ns()) / 2.0
            setups.append((wall, wall * NOMINAL_REF_NS / ref))
            problems += [f"warm-up: {p}" for p in fleet.warmup_problems]
        gc.collect()
        gc.freeze()
        measurement = Measurement()
        drive(script.windows(), fleet.send, fleet.cpu_ns, measurement)
        rss = fleet.rss_mb()
        node_metrics = fleet.node_metrics()
        replica_ratio = fleet.replica_read_ratio()
    finally:
        if fleet is not None:
            fleet.stop()
        gc.unfreeze()
    return {
        "setup_wall_s": median(wall for wall, _ in setups),
        "setup_s": median(normalized for _, normalized in setups),
        "measurement": measurement,
        "rss_mb": rss,
        "counts": counts.from_metrics(node_metrics),
        "replica_read_ratio": replica_ratio,
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
