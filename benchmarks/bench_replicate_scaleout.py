"""Read scale-out under WAL-shipping replication: routed CPU, lag, fences.

Three questions, answered against one in-process fleet (a store-backed
primary plus two tailing followers) over loopback:

* **What does routed reading cost per topology?**  The hot read
  workload (implies answered from the session closure cache) is driven
  through :class:`RoutedClient` with 0, 1 and 2 replicas attached.  All
  nodes share one machine and one interpreter, so this does *not*
  demonstrate linear scaling — it documents that fan-out routing works
  with zero failovers/redirects, and what a routed hop costs relative
  to the single-node path.  One read window of ``READ_REQUESTS``
  reads spreads 110–175 µs per read from run to run, wider than the
  gaps between topologies, so the three topologies take turns over
  ``READ_ROUNDS`` rounds (the order rotates each round) and every
  figure is the median over rounds, with the quartiles of the CPU
  figures beside it.  Three CPU figures per topology, from the
  interpreter's ``time.process_time``, which counts the client and
  every node alike (the report records the host's ``cpus`` beside
  them):

  - ``read_cpu_us``: gross CPU µs per routed read, over the timed
    reads;
  - ``idle_cpu_us_per_s``: CPU µs per wall second of an idle window
    taken right after the timed reads on the same fleet with no reads:
    what the followers' replication long-polls (and the rest of the
    idle fleet) burn anyway.  The window lasts as long as the reads,
    and at least ``IDLE_MIN_S``, two of the followers' poll periods.
    Nearly all of the idle cost is the poll expiries: on a 2-vCPU KVM
    guest one expiry took ≈1.2 ms of CPU over the three node threads,
    which wake from idle for it.  A window shorter than a period
    catches none or one of them depending on its phase, so one
    topology's median used to read 15–25 times the others';
  - ``net_read_cpu_us``: ``read_cpu_us`` less that idle rate over the
    reads' wall time, per read: what a routed read itself costs.

  QPS (``read_qps``) is secondary: every node's threads share this one
  interpreter and take turns on one CPU, so a QPS that falls as
  replicas are added is that 1-CPU contention (idle followers keep
  long-polling), not a cost of routing.

* **How far behind is a follower?**  For each of ``LAG_MUTATIONS``
  acknowledged mutations the benchmark measures the time from the
  primary's ack (which carries the WAL ``seq``) until the follower's
  ``applied_seq`` reaches it.  The primary writes the batch before the
  ack, so the follower often has it applied before the client reads
  the ack; p95 should stay in the low milliseconds, and the hard bound
  is generous for CI boxes.

* **What does the read fence cost when satisfied?**  Paired rounds of
  fenced (``min_seq`` at the primary's last ack) vs unfenced replica
  reads on a caught-up follower.  A satisfied fence is one integer
  comparison server-side; the recorded ``overhead_pct`` documents it.

``BENCH_replicate_scaleout.json`` at the repository root records all
three.

Run:  pytest benchmarks/bench_replicate_scaleout.py -s
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from pathlib import Path
from statistics import median, quantiles

from repro.replicate import RoutedClient
from repro.serve import Client, ReasoningServer, ServeConfig

from _timing import cpus

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_replicate_scaleout.json"

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
HOT_PROBE = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"

READ_REQUESTS = 300      # hot reads per topology window
READ_ROUNDS = 9          # interleaved windows per topology
WARMUP = 30              # unmeasured reads before each timing
LAG_MUTATIONS = 40       # acked writes timed against the follower tail
FENCE_ROUNDS = 7         # interleaved fenced/unfenced paired rounds
FENCE_REQUESTS = 150     # replica reads per fence round
FENCE_ASSERT_PCT = 25.0  # noise-tolerant bound on fence overhead
LAG_ASSERT_P95_MS = 1500.0
FOLLOWER_POLL = 0.2      # the followers' replicate_poll, seconds
IDLE_MIN_S = 2 * FOLLOWER_POLL


@contextlib.contextmanager
def _served(**overrides):
    """One ReasoningServer on a background thread (the `_stopped` idiom)."""
    ready = threading.Event()
    box = {}

    def serve():
        async def main():
            config = ServeConfig(idle_ttl=None, workers=0,
                                 request_timeout=None, **overrides)
            async with ReasoningServer(config) as server:
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                box["address"] = server.address
                ready.set()
                await server._stopped.wait()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "server thread failed to start"
    try:
        yield box["address"], box["server"]
    finally:
        box["loop"].call_soon_threadsafe(
            lambda: asyncio.ensure_future(box["server"].shutdown()))
        thread.join(timeout=10)


@contextlib.contextmanager
def _fleet(tmp_path):
    """A store-backed primary plus two tailing followers."""
    with contextlib.ExitStack() as stack:
        (host, port), primary = stack.enter_context(
            _served(data_dir=str(tmp_path / "primary")))
        replicas, followers = [], []
        for index in (1, 2):
            (f_host, f_port), follower = stack.enter_context(
                _served(data_dir=str(tmp_path / f"follower{index}"),
                        replicate_from=f"{host}:{port}",
                        replica_id=f"bench-f{index}",
                        replicate_poll=FOLLOWER_POLL))
            replicas.append((f_host, f_port))
            followers.append(follower)
        yield (host, port), replicas, followers


def _catchup(followers, seq, budget=10.0):
    deadline = time.monotonic() + budget
    while any(f.replicator.applied_seq < seq for f in followers):
        assert time.monotonic() < deadline, "followers never caught up"
        time.sleep(0.01)


def _read_round(client, requests):
    """Time ``requests`` cache-hit implies calls; returns seconds."""
    started = time.perf_counter()
    for _ in range(requests):
        client.implies("bench", HOT_PROBE)
    return time.perf_counter() - started


def _read_window(client):
    """One timed window of hot reads then an idle window as long (at
    least ``IDLE_MIN_S``): ``(seconds, CPU seconds, idle CPU seconds
    per second)``."""
    cpu_started = time.process_time()
    elapsed = _read_round(client, READ_REQUESTS)
    cpu = time.process_time() - cpu_started
    idle_started = time.process_time(), time.perf_counter()
    time.sleep(max(elapsed, IDLE_MIN_S))
    idle_rate = ((time.process_time() - idle_started[0])
                 / (time.perf_counter() - idle_started[1]))
    return elapsed, cpu, idle_rate


def _summary(values, digits=1):
    """``(median, [first quartile, third quartile])``."""
    q1, _, q3 = quantiles(values, n=4)
    return round(median(values), digits), [round(q1, digits),
                                           round(q3, digits)]


def _measure_reads(primary_address, replica_addresses):
    """Routed hot reads with 0, 1 and 2 replicas attached, the topologies
    interleaved over ``READ_ROUNDS`` rounds: QPS, CPU µs per read over
    the whole interpreter, the idle fleet's CPU µs per second and the
    net CPU µs per read (module doc), each the median over rounds, plus
    the quartiles of the two per-read CPU figures."""
    counts = (0, 1, 2)
    windows = {count: [] for count in counts}
    with contextlib.ExitStack() as stack:
        clients = {count: stack.enter_context(RoutedClient(
            primary_address, replica_addresses[:count])) for count in counts}
        for client in clients.values():
            _read_round(client, WARMUP)
        for round_index in range(READ_ROUNDS):
            for offset in range(len(counts)):
                count = counts[(round_index + offset) % len(counts)]
                windows[count].append(_read_window(clients[count]))
        for count, client in clients.items():
            assert client.counters["routed.failover"] == 0, client.counters
            assert client.counters["routed.redirects"] == 0, client.counters
            if count:
                assert (client.counters["routed.replica_reads"]
                        == WARMUP + READ_ROUNDS * READ_REQUESTS
                        ), client.counters
    rows, cpu_rows, idle_rows, net_rows = {}, {}, {}, {}
    cpu_quartiles, net_quartiles = {}, {}
    for count, runs in windows.items():
        key = f"replicas_{count}"
        rows[key] = round(median(READ_REQUESTS / elapsed
                                 for elapsed, _, _ in runs), 1)
        cpu_rows[key], cpu_quartiles[key] = _summary(
            [cpu / READ_REQUESTS * 1e6 for _, cpu, _ in runs])
        idle_rows[key] = round(median(idle * 1e6 for _, _, idle in runs), 1)
        net_rows[key], net_quartiles[key] = _summary(
            [(cpu - idle * elapsed) / READ_REQUESTS * 1e6
             for elapsed, cpu, idle in runs])
    for table in (rows, cpu_rows, net_rows):
        table["requests"] = READ_REQUESTS
        table["rounds"] = READ_ROUNDS
    return rows, cpu_rows, idle_rows, net_rows, cpu_quartiles, net_quartiles


def _measure_lag(primary_address, follower):
    """Primary-ack → follower-applied latency per mutation, in ms."""
    lags_ms = []
    with Client.connect(*primary_address) as client:
        for _ in range(LAG_MUTATIONS):
            result = client.open("lag", SCHEMA, [MVD], replace=True)
            seq = result["seq"]
            started = time.perf_counter()
            while follower.replicator.applied_seq < seq:
                time.sleep(0.0002)
            lags_ms.append((time.perf_counter() - started) * 1000.0)
    cuts = quantiles(lags_ms, n=20)
    return {
        "mutations": LAG_MUTATIONS,
        "p50_ms": round(median(lags_ms), 3),
        "p95_ms": round(cuts[18], 3),
        "max_ms": round(max(lags_ms), 3),
    }


def _measure_fence_overhead(primary_address, replica_address, follower):
    """Paired rounds: fenced vs unfenced reads on a caught-up replica."""
    with RoutedClient(primary_address, [replica_address]) as fenced, \
            RoutedClient(primary_address, [replica_address],
                         fence=False) as unfenced:
        # a fresh mutation arms the fence at its acked WAL seq
        opened = fenced.open("bench", SCHEMA, [MVD], replace=True)
        assert fenced.min_seq == opened["seq"] > 0
        _catchup([follower], opened["seq"])
        _read_round(fenced, WARMUP)
        _read_round(unfenced, WARMUP)
        fenced_times, unfenced_times = [], []
        for _ in range(FENCE_ROUNDS):
            unfenced_times.append(_read_round(unfenced, FENCE_REQUESTS))
            fenced_times.append(_read_round(fenced, FENCE_REQUESTS))
        assert fenced.counters["routed.redirects"] == 0, fenced.counters
    ratios = [f / u for u, f in zip(unfenced_times, fenced_times)]
    return {
        "requests_per_round": FENCE_REQUESTS,
        "rounds": FENCE_ROUNDS,
        "unfenced_qps": round(FENCE_REQUESTS / median(unfenced_times), 1),
        "fenced_qps": round(FENCE_REQUESTS / median(fenced_times), 1),
        "overhead_pct": round((median(ratios) - 1.0) * 100.0, 3),
    }


def test_replicate_scaleout_report(benchmark, tmp_path):
    def measure():
        with _fleet(tmp_path) as (primary_address, replicas, followers):
            with Client.connect(*primary_address) as client:
                opened = client.open("bench", SCHEMA, [MVD])
            _catchup(followers, opened["seq"])
            (read_qps, read_cpu_us, idle_cpu, net_cpu, cpu_quartiles,
             net_quartiles) = _measure_reads(primary_address, replicas)
            return {
                "read_cpu_us": read_cpu_us,
                "read_cpu_us_quartiles": cpu_quartiles,
                "idle_cpu_us_per_s": idle_cpu,
                "net_read_cpu_us": net_cpu,
                "net_read_cpu_us_quartiles": net_quartiles,
                "read_qps": read_qps,
                "replication_lag": _measure_lag(primary_address,
                                                followers[0]),
                "fence_overhead": _measure_fence_overhead(
                    primary_address, replicas[0], followers[0]),
            }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)

    report = {"replicate_scaleout": row,
              "cpus": cpus(),
              "fence_assert_pct": FENCE_ASSERT_PCT,
              "lag_assert_p95_ms": LAG_ASSERT_P95_MS}
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    qps, lag, fence = (row["read_qps"], row["replication_lag"],
                       row["fence_overhead"])
    cpu_us, idle, net = (row["read_cpu_us"], row["idle_cpu_us_per_s"],
                         row["net_read_cpu_us"])
    net_iqr = row["net_read_cpu_us_quartiles"]
    print(f"\nreplicate scale-out ({READ_ROUNDS} interleaved rounds of "
          f"{READ_REQUESTS} hot reads/topology, {report['cpus']} CPUs; "
          f"medians):")
    for count in (0, 1, 2):
        key = f"replicas_{count}"
        print(f"  {count} replicas {cpu_us[key]:8.1f} CPU µs/read "
              f"({net[key]:8.1f} net [IQR {net_iqr[key][0]:.1f}–"
              f"{net_iqr[key][1]:.1f}] of {idle[key]:8.1f} idle µs/s) "
              f"{qps[key]:8.1f} qps")
    print(f"  lag   p50 {lag['p50_ms']:.2f} ms, p95 {lag['p95_ms']:.2f} ms "
          f"over {lag['mutations']} mutations")
    print(f"  fence {fence['fenced_qps']:8.1f} qps fenced vs "
          f"{fence['unfenced_qps']:8.1f} unfenced "
          f"({fence['overhead_pct']:+.2f}% median paired overhead)")
    print(f"report written to {JSON_PATH.name}")

    # every topology served its whole workload (the asserts inside the
    # measurement guarantee zero failovers and zero redirects)
    assert all(qps[f"replicas_{n}"] > 0 for n in (0, 1, 2)), qps
    # long-poll shipping keeps the tail close; the bound is generous
    # because single-CPU CI boxes schedule the follower loop lazily
    assert lag["p95_ms"] <= LAG_ASSERT_P95_MS, lag
    # a satisfied min_seq fence is one integer comparison server-side
    assert fence["overhead_pct"] <= FENCE_ASSERT_PCT, fence
