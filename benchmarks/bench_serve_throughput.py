"""Load-test harness for ``repro.serve``: QPS and latency percentiles.

Three mixed workloads over one :class:`ReasoningServer` in a process
of its own, driven through the pipelining :class:`AsyncClient` exactly
as a remote load generator would (same wire protocol, real TCP sockets
on loopback).  The client never takes turns in the server's event loop
or waits for its interpreter lock: hosted on a thread of the client's
process, the server and the client traded the lock at every socket
call, so whether the 24-deep cold pipeline ever filled depended on
which thread won, and the cold p50 read either ≈3 ms or ≈50 ms from
run to run.

* **cold closures** — every query has a distinct left-hand side, so
  each one pays a full worklist-kernel run, inline in the server's
  event loop (the server has no worker pool; reads scale across cores
  through read replicas, see ``bench_replicate_scaleout.py``).
* **hot LHS repeats** — the steady state: every query re-asks a
  left-hand side the session has already closed, answered from the
  per-LHS cache without touching the kernel.  The p50 here must be
  far below the cold p50 (the session-cache criterion, CPU-count
  independent).
* **add/retract churn** — the interactive-editing shape: each cycle
  edits Σ (bumping the session generation) and re-probes, so the
  server keeps invalidating and recomputing.

A fourth run pipelines hot queries ``DEEP_PIPELINE`` deep against a
server with the default caps, deeper than ``max_pending_per_conn``:
requests that do not wait are answered inline, one line at a time, so
none may be refused ``overloaded``.

``BENCH_serve_throughput.json`` at the repository root records QPS,
p50/p95/p99 client-observed latency, and the environment (``cpus``).

Run:  pytest benchmarks/bench_serve_throughput.py -s
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import AsyncClient, Client, ServeConfig
from repro.workloads import mixed_family

from _timing import ab_compare

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve_throughput.json"

SCALE = 16           # mixed_family(16): |N| = 64 basis subattributes
CLUSTERS = 8
COLD_QUERIES = 48    # distinct left-hand sides per cold run
HOT_QUERIES = 300    # repeats of one already-closed left-hand side
CHURN_CYCLES = 40    # add → probe → retract → probe cycles
CONCURRENCY = 24     # client-side pipelining depth
DEEP_PIPELINE = 64   # deeper than ServeConfig's max_pending_per_conn (32)
HOT_OVER_COLD = 5.0  # hot p50 must beat cold p50 by at least this factor

SCHEMA_ROOT = mixed_family(SCALE)


def _sigma_texts() -> list[str]:
    """The clustered Σ of bench_incremental_cover, plus cross-cluster
    links so cold closures walk several clusters (more kernel passes)."""
    texts = []
    per = SCALE // CLUSTERS
    for cluster in range(CLUSTERS):
        i, j = cluster * per + 1, cluster * per + 2
        texts.extend([
            f"R(A{i}) -> R(A{j})",
            f"R(A{j}) -> R(L{i}[D{i}(B{i}, λ)])",
            f"R(A{j}) ->> R(L{j}[D{j}(B{j}, C{j})])",
            f"R(L{i}[λ]) -> R(A{i})",
        ])
        nxt = ((cluster + 1) % CLUSTERS) * per + 1
        texts.append(f"R(A{j}) ->> R(A{nxt})")
    return texts


def _cold_queries() -> list[str]:
    """Distinct-LHS membership queries: no two share a closure."""
    queries = []
    k = 1
    while len(queries) < COLD_QUERIES:
        i = (k - 1) % SCALE + 1
        j = k % SCALE + 1
        m = (k + 1) % SCALE + 1
        # vary the LHS shape so every mask is distinct
        lhs = [f"R(A{i}, L{j}[D{j}(B{j})])",
               f"R(L{i}[D{i}(B{i})], L{j}[D{j}(C{j})])",
               f"R(A{i}, L{j}[λ])",
               f"R(A{i}, A{j}, L{m}[D{m}(B{m})])"][k % 4]
        queries.append(f"{lhs} ->> R(A{m})")
        k += 1
    return queries


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _stats(latencies: list[float], elapsed: float) -> dict:
    ordered = sorted(latencies)
    return {
        "requests": len(latencies),
        "qps": round(len(latencies) / elapsed, 1),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
    }


async def _drive(client: AsyncClient, requests: list[tuple[str, dict]],
                 depth: int = CONCURRENCY) -> dict:
    """Fire requests with bounded pipelining; per-request latencies."""
    gate = asyncio.Semaphore(depth)
    latencies: list[float] = []

    async def one(op: str, params: dict) -> None:
        async with gate:
            started = time.perf_counter()
            await client.request(op, **params)
            latencies.append(time.perf_counter() - started)

    started = time.perf_counter()
    await asyncio.gather(*(one(op, params) for op, params in requests))
    return _stats(latencies, time.perf_counter() - started)


async def _cold_run(client: AsyncClient, sigma: list[str]) -> dict:
    """Reset the session (cache gone), then fire all distinct-LHS queries."""
    await client.open("bench", str(SCHEMA_ROOT), sigma, replace=True)
    return await _drive(client, [
        ("implies", {"session": "bench", "dependency": text})
        for text in _cold_queries()])


async def _hot_run(client: AsyncClient) -> dict:
    probe = _cold_queries()[0]
    await client.request("implies", session="bench", dependency=probe)  # warm
    return await _drive(client, [
        ("implies", {"session": "bench", "dependency": probe})] * HOT_QUERIES)


async def _churn_run(client: AsyncClient) -> dict:
    """Sequential (the edits must interleave with the probes)."""
    extra = "R(A1) -> R(L2[D2(C2)])"
    probe = "R(A1) ->> R(L2[D2(C2)])"
    latencies: list[float] = []
    started = time.perf_counter()
    for _ in range(CHURN_CYCLES):
        for op, params in [
            ("add", {"session": "bench", "dependency": extra}),
            ("implies", {"session": "bench", "dependency": probe}),
            ("retract", {"session": "bench", "dependency": extra}),
            ("implies", {"session": "bench", "dependency": probe}),
        ]:
            tick = time.perf_counter()
            await client.request(op, **params)
            latencies.append(time.perf_counter() - tick)
    return _stats(latencies, time.perf_counter() - started)


#: The server process: builds the config from the JSON in ``argv[1]``,
#: prints its address, serves until SIGTERM.
_SERVER_MAIN = """
import asyncio, json, sys
from repro.serve import ReasoningServer, ServeConfig

async def main():
    server = ReasoningServer(ServeConfig(**json.loads(sys.argv[1])))
    await server.start()
    print("%s %d" % server.address, flush=True)
    await server.serve_forever()

asyncio.run(main())
"""


@contextlib.contextmanager
def _served(**config):
    """One ReasoningServer in a child process: ``(host, port)``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    ServeConfig(**config)  # a bad field fails here, not in the child
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVER_MAIN, json.dumps(config)],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        host, port = server.stdout.readline().split()
        yield host, int(port)
    finally:
        server.terminate()
        server.wait(timeout=30)
        server.stdout.close()


async def _inline_runs(address: tuple[str, int], sigma: list[str]) -> dict:
    async with await AsyncClient.connect(*address) as client:
        warmup = await _cold_run(client, sigma)   # warm code paths
        cold = await _cold_run(client, sigma)
        hot = await _hot_run(client)
        churn = await _churn_run(client)
    return {"warmup_qps": warmup["qps"], "cold": cold, "hot": hot,
            "churn": churn}


def _measure(sigma: list[str]) -> dict:
    with _served(max_inflight=256, max_pending_per_conn=256, idle_ttl=None,
                 request_timeout=None) as address:
        return asyncio.run(_inline_runs(address, sigma))


async def _deep_client(address: tuple[str, int], sigma: list[str]) -> dict:
    async with await AsyncClient.connect(*address) as client:
        await client.open("bench", str(SCHEMA_ROOT), sigma)
        return await _drive(client, [
            ("implies", {"session": "bench",
                         "dependency": _cold_queries()[0]})] * HOT_QUERIES,
            depth=DEEP_PIPELINE)


def _deep_run(sigma: list[str]) -> dict:
    """Hot queries pipelined ``DEEP_PIPELINE`` deep on default caps."""
    config = ServeConfig(idle_ttl=None, request_timeout=None)
    assert DEEP_PIPELINE > config.max_pending_per_conn
    with _served(idle_ttl=None, request_timeout=None) as address:
        stats = asyncio.run(_deep_client(address, sigma))
        with Client.connect(*address) as client:
            counters = client.metrics()["server"]["counters"]
    stats["max_pending_per_conn"] = config.max_pending_per_conn
    stats["overloaded"] = counters.get("serve.overloads", 0)
    return {"depth": DEEP_PIPELINE, **stats}


def test_serve_throughput_report(benchmark):
    sigma = _sigma_texts()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)

    def measure():
        return {
            "cpus": cpus,
            "sigma_size": len(sigma),
            "cold_queries": COLD_QUERIES,
            "concurrency": CONCURRENCY,
            "inline": _measure(sigma),
            "deep_pipeline": _deep_run(sigma),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)

    report = {"serve_throughput": row, "hot_over_cold_target": HOT_OVER_COLD}
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    stats = row["inline"]
    print(f"\nserve throughput (|Σ|={row['sigma_size']}, "
          f"{COLD_QUERIES} cold LHS, pipeline depth {CONCURRENCY}, "
          f"{cpus} cpu(s)):")
    print(f"  cold {stats['cold']['qps']:8.1f} qps "
          f"(p50 {stats['cold']['p50_ms']:.2f}ms  "
          f"p99 {stats['cold']['p99_ms']:.2f}ms)   "
          f"hot {stats['hot']['qps']:8.1f} qps "
          f"(p50 {stats['hot']['p50_ms']:.3f}ms)   "
          f"churn {stats['churn']['qps']:8.1f} qps")
    deep = row["deep_pipeline"]
    print(f"  {deep['depth']}-deep pipeline {deep['qps']:8.1f} qps "
          f"(p50 {deep['p50_ms']:.3f}ms), {deep['overloaded']} overloaded")
    print(f"report written to {JSON_PATH.name}")

    # The session cache must make hot left-hand sides far cheaper than
    # cold ones — true regardless of CPU count.
    assert (stats["hot"]["p50_ms"] * HOT_OVER_COLD
            <= stats["cold"]["p50_ms"]), stats
    # Pipelining past max_pending_per_conn is backpressure, not overload.
    assert deep["overloaded"] == 0, deep


# -- registry dispatch overhead (PR 8 guard) -------------------------------
#
# The typed command registry replaced the server's per-op if-chain.  The
# guard below times both shapes back to back on the warm-cache hot path
# (params dict in, result dict out — exactly what ``_dispatch`` does once
# a request is parsed) and fails if the registry costs more than noise.

DISPATCH_BATCH = 400       # wire dispatches per timed sample
DISPATCH_NOISE = 1.25      # registry / if-chain median ratio ceiling


def _dispatch_fixture():
    """A warmed session plus the request stream both dispatchers replay."""
    from repro.core.session import Session
    from repro.schema import Schema

    schema = Schema(str(SCHEMA_ROOT))
    session = Session(schema.root, encoding=schema.encoding)
    for text in _sigma_texts():
        session.add(schema.dependency(text))
    probes = _cold_queries()[:4]
    requests = [("implies", {"session": "bench", "dependency": text})
                for text in probes]
    requests.append(("closure", {"session": "bench", "x": "R(A1)"}))
    for op, params in requests:      # warm the per-LHS closure cache
        from repro.core import commands
        commands.execute(commands.from_wire(op, params), session)
    return session, requests


def _if_chain_dispatch(session, op, params):
    """The pre-registry server hot path, kept as the baseline.

    An if-chain over the same mask-level session calls the registry's
    commands make (``dependency_masks``/``implies_masks``,
    ``encoding.parse``/``render``), so the two differ by the registry's
    own cost alone: ``from_wire``, the param checks and ``execute``.
    """
    if op == "implies":
        text = params.get("dependency")
        if not isinstance(text, str):
            raise ValueError("'dependency' must be a string")
        return {"implied": session.implies_masks(
            *session.dependency_masks(text))}
    if op == "closure":
        text = params.get("x")
        if not isinstance(text, str):
            raise ValueError("'x' must be a string")
        encoding = session.encoding
        result = session.result_for_mask(encoding.parse(text))
        return {"closure": encoding.render(result.closure_mask),
                "passes": result.passes}
    raise AssertionError(f"unhandled op {op!r}")


def test_registry_dispatch_within_noise_of_if_chain():
    from repro.core import commands

    session, requests = _dispatch_fixture()

    def via_if_chain():
        for _ in range(DISPATCH_BATCH // len(requests)):
            for op, params in requests:
                _if_chain_dispatch(session, op, params)

    def via_registry():
        for _ in range(DISPATCH_BATCH // len(requests)):
            for op, params in requests:
                commands.execute(commands.from_wire(op, params), session)

    best_old, best_new, median_diff = ab_compare(
        via_if_chain, via_registry, (), budget_s=2.0)
    ratio = best_new / max(best_old, 1e-12)

    row = {
        "batch": DISPATCH_BATCH,
        "if_chain_best_us_per_op": round(best_old / DISPATCH_BATCH * 1e6, 3),
        "registry_best_us_per_op": round(best_new / DISPATCH_BATCH * 1e6, 3),
        "median_diff_us_per_op": round(
            median_diff / DISPATCH_BATCH * 1e6, 3),
        "ratio": round(ratio, 3),
        "noise_ceiling": DISPATCH_NOISE,
    }
    report = {}
    if JSON_PATH.exists():
        report = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    report["dispatch_overhead"] = row
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"\nregistry dispatch overhead ({DISPATCH_BATCH} ops/sample): "
          f"if-chain {row['if_chain_best_us_per_op']:.3f}us/op, "
          f"registry {row['registry_best_us_per_op']:.3f}us/op "
          f"(ratio {ratio:.3f}, ceiling {DISPATCH_NOISE})")

    assert ratio <= DISPATCH_NOISE, row
