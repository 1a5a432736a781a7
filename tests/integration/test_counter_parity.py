"""One counting path: every always-on tally reaches the observer.

A single fleet run ticks every kind of tally the package keeps: a
durable primary that evicts by LRU and compacts, a follower that
bootstraps from its snapshot and applies records, a fenced read it
cannot meet, a ``RoutedClient`` whose fenced read goes to the follower,
and a ``RetryingAsyncClient`` retrying through an injected ``error``
fault.  The sum of those tallies must equal the installed observer's
counters of the same names, and every name must have a row in the
metrics table of docs/OBSERVABILITY.md.
"""

import asyncio
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.obs import Observer, install
from repro.replicate import RoutedClient
from repro.serve import (
    AsyncClient,
    CircuitBreaker,
    ErrorCode,
    FaultPlan,
    ReasoningServer,
    RetryingAsyncClient,
    RetryPolicy,
    ServeConfig,
    ServerError,
)

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"

#: Counter families kept as per-node or per-client tallies.
TALLIED = ("serve.", "store.", "replicate.", "routed.", "client.retry.")

OBSERVABILITY_MD = (Path(__file__).resolve().parents[2]
                    / "docs" / "OBSERVABILITY.md")

FAST = RetryPolicy(max_retries=6, base_delay=0.001, max_delay=0.005,
                   deadline=30.0)


async def caught_up(server, seq, budget=5.0):
    deadline = asyncio.get_running_loop().time() + budget
    while server.replicator.applied_seq < seq:
        if asyncio.get_running_loop().time() > deadline:  # pragma: no cover
            raise AssertionError(
                f"follower stuck at {server.replicator.applied_seq}")
        await asyncio.sleep(0.01)


def routed_fenced_read(primary, replica):
    """A routed mutation, then a read fenced at its seq.

    Runs in a worker thread while the servers run on the loop: the
    observer is not thread-safe, but only this thread counts the
    ``routed.*`` and ``client.retry.*`` names it adds to.
    """
    routed = RoutedClient(primary, [replica], policy=FAST)
    with routed:
        assert routed.add("b", IMPLIED_FD)["added"]
        assert routed.min_seq > 0
        assert routed.implies("b", IMPLIED_FD) is True
    return routed


async def fleet_run(data_dir: Path):
    """Run the fleet under an observer; return (tallies, observed)."""
    tallies = []
    with install(Observer()) as observer:
        primary_cfg = ServeConfig(idle_ttl=None, max_sessions=1, fsync="off",
                                  data_dir=str(data_dir / "primary"))
        async with ReasoningServer(primary_cfg) as primary:
            host, port = primary.address
            async with await AsyncClient.connect(host, port) as up:
                await up.open("a", SCHEMA, [MVD])
                await up.open("b", SCHEMA, [MVD])  # evicts "a" (LRU)
                assert await up.implies("b", IMPLIED_FD) is True
            # fold the log into a snapshot: the follower restores from it
            primary.store.compact(primary.sessions.snapshot_state())
            follower_cfg = ServeConfig(
                data_dir=str(data_dir / "follower"),
                replicate_from=f"{host}:{port}", replica_id="parity",
                replicate_poll=0.2, fence_wait=2.0)
            async with ReasoningServer(follower_cfg) as follower:
                await caught_up(follower, primary.store.last_seq)
                routed = await asyncio.to_thread(
                    routed_fenced_read, (host, port), follower.address)
                await caught_up(follower, primary.store.last_seq)
                follower.config.fence_wait = 0.05
                async with await AsyncClient.connect(
                        *follower.address) as down:
                    with pytest.raises(ServerError) as info:
                        await down.request("implies", session="b",
                                           dependency=IMPLIED_FD,
                                           min_seq=10_000)
                    assert info.value.code == ErrorCode.REPLICA_BEHIND
            tallies += [primary.counters, follower.counters, routed.counters,
                        routed.primary.counters,
                        *(node.counters for node in routed.replicas)]

        plan = FaultPlan([{"op": "ping", "kind": "error",
                           "code": "overloaded", "times": 2}])
        async with ReasoningServer(ServeConfig(idle_ttl=None,
                                               fault_plan=plan)) as faulty:
            client = await RetryingAsyncClient.connect(
                *faulty.address, policy=FAST,
                breaker=CircuitBreaker(failure_threshold=100),
                rng=random.Random(0))
            try:
                await client.ping()
            finally:
                await client.close()
            tallies += [faulty.counters, client.counters]
        observed = observer.metrics.snapshot()["counters"]
    return tallies, observed


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tallies, observed = asyncio.run(
        fleet_run(tmp_path_factory.mktemp("fleet")))
    summed = Counter()
    for tally in tallies:
        summed.update(tally)
    return summed, observed


def documented_counters() -> list[re.Pattern]:
    """One pattern per counter name in OBSERVABILITY.md's metrics table;
    ``<op>``, ``<code>``, ``<reason>`` and ``<kind>`` match any text."""
    patterns = []
    for line in OBSERVABILITY_MD.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] != "counter":
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            parts = re.split(r"<(?:op|code|reason|kind)>", name)
            patterns.append(re.compile(".+".join(map(re.escape, parts))))
    return patterns


class TestCounterParity:
    def test_the_run_ticks_every_kind_of_tally(self, fleet):
        summed, _ = fleet
        for name in ("serve.connections", "serve.sessions_opened",
                     "serve.sessions_restored", "serve.evictions.lru",
                     "serve.fence_timeouts", "serve.fault.error",
                     "store.appends", "store.append_bytes",
                     "store.recoveries", "store.snapshots",
                     "store.compactions", "replicate.applied",
                     "replicate.resets", "replicate.shipped",
                     "routed.replica_reads", "client.retry.attempts"):
            assert summed[name] > 0, name

    def test_every_tally_equals_the_observer_counter(self, fleet):
        summed, observed = fleet
        tallied = {name: value for name, value in observed.items()
                   if name.startswith(TALLIED)}
        assert tallied == dict(summed)

    def test_every_tally_name_is_documented(self, fleet):
        summed, _ = fleet
        patterns = documented_counters()
        undocumented = sorted(name for name in summed
                              if not any(p.fullmatch(name) for p in patterns))
        assert undocumented == []


class TestRestoreCounts:
    def test_recovered_sessions_count_as_restores_only(self, tmp_path):
        config = ServeConfig(idle_ttl=None, fsync="off",
                             data_dir=str(tmp_path),
                             store_compact_records=2)

        async def scenario():
            async with ReasoningServer(config) as server:
                async with await AsyncClient.connect(*server.address) as up:
                    await up.open("pub", SCHEMA, [MVD])
                    await up.open("nest", "R(A, L[K(B, C)], M[D])")
                # two records compacted: both sessions are in the snapshot
                assert server.store.stats()["compactions"] == 1
            with install(Observer()) as observer:
                async with ReasoningServer(config) as server:
                    async with await AsyncClient.connect(
                            *server.address) as client:
                        payload = await client.metrics()
                observed = observer.metrics.snapshot()["counters"]
            return payload["server"]["counters"], observed

        counters, observed = asyncio.run(scenario())
        assert counters["serve.sessions_restored"] == 2
        assert "serve.sessions_opened" not in counters
        assert observed["serve.sessions_restored"] == 2
        assert "serve.sessions_opened" not in observed
