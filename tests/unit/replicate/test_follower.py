"""The Replicator: apply/gap/reset discipline, fences, live streaming.

Pure-logic tests drive ``_apply``/``_apply_reset`` with fakes; the
streaming tests run a real primary + follower pair inside one
``asyncio.run`` (same no-plugin idiom as the server unit tests).
"""

import asyncio

import pytest

from repro.replicate import Replicator
from repro.serve import (
    AsyncClient,
    ErrorCode,
    ReasoningServer,
    ServeConfig,
    ServerError,
)
from repro.store.wal import StoreError, WalRecord

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"


class FakeManager:
    """Just enough of SessionManager for apply/reset bookkeeping."""

    def __init__(self):
        self.ops = []
        self._names = []

    def names(self):
        return tuple(self._names)

    def open(self, name, schema, dependencies=(), *, engine=None,
             replace=False, now=None):
        self.ops.append(("open", name))
        self._names.append(name)

    def close(self, name, now=None):
        self.ops.append(("close", name))
        self._names.remove(name)

    def restore(self, name, schema, dependencies, *, engine, epoch,
                generation):
        self.ops.append(("restore", name, generation))
        self._names.append(name)

    def snapshot_state(self):
        return {}


def record(seq, name="s"):
    return WalRecord(seq, "open", {"name": f"{name}{seq}", "schema": "R(A)"})


class TestApply:
    def test_applies_in_order_and_resolves_waiters(self):
        replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
        assert replicator._apply([record(1), record(2)]) == 2
        assert replicator.applied_seq == 2
        assert replicator.manager.ops == [("open", "s1"), ("open", "s2")]

    def test_duplicates_are_skipped(self):
        replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
        replicator.applied_seq = 2
        assert replicator._apply([record(1), record(2), record(3)]) == 1
        assert replicator.manager.ops == [("open", "s3")]

    def test_a_gap_is_divergence(self):
        replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
        with pytest.raises(StoreError, match="replication gap"):
            replicator._apply([record(2)])

    @pytest.mark.parametrize("reset", [
        None, [], {}, {"last_seq": 3}, {"sessions": {}},
        {"last_seq": True, "sessions": {}},
        {"last_seq": "3", "sessions": {}},
        {"last_seq": 3, "sessions": []},
    ])
    def test_malformed_resets_raise(self, reset):
        replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
        with pytest.raises(ValueError, match="malformed replication reset"):
            replicator._apply_reset(reset)

    def test_reset_rebuilds_the_manager(self):
        manager = FakeManager()
        manager._names = ["stale"]
        replicator = Replicator(manager, None, "127.0.0.1", 1)
        replicator._apply_reset({"last_seq": 9, "sessions": {
            "pub": {"schema": SCHEMA, "dependencies": [MVD],
                    "engine": "worklist", "epoch": "e1", "generation": 4}}})
        assert replicator.applied_seq == 9
        assert replicator.resets == 1
        assert manager.ops == [("close", "stale"), ("restore", "pub", 4)]

    def test_status_payload(self):
        replicator = Replicator(FakeManager(), None, "h", 7, follower_id="f")
        status = replicator.status()
        assert status["primary"] == "h:7"
        assert status["follower_id"] == "f"
        assert status["state"] == "connecting"
        assert status["applied_seq"] == 0
        assert "error" not in status


class TestWaitForSeq:
    def test_already_applied_returns_immediately(self):
        async def scenario():
            replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
            replicator.applied_seq = 5
            assert await replicator.wait_for_seq(5, timeout=0.0)

        asyncio.run(scenario())

    def test_wakes_when_the_tail_advances(self):
        async def scenario():
            replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
            waiting = asyncio.ensure_future(
                replicator.wait_for_seq(1, timeout=5.0))
            await asyncio.sleep(0.01)
            replicator._apply([record(1)])
            assert await waiting

        asyncio.run(scenario())

    def test_times_out_when_it_never_arrives(self):
        async def scenario():
            replicator = Replicator(FakeManager(), None, "127.0.0.1", 1)
            assert not await replicator.wait_for_seq(1, timeout=0.02)
            assert replicator._waiters == []

        asyncio.run(scenario())


def follower_config(tmp_path, primary_address, **kwargs):
    return ServeConfig(port=0, data_dir=str(tmp_path / "follower"),
                       replicate_from=primary_address,
                       replica_id="unit-f1", replicate_poll=0.2,
                       fence_wait=2.0, **kwargs)


async def caught_up(server, seq, budget=5.0):
    deadline = asyncio.get_running_loop().time() + budget
    while server.replicator.applied_seq < seq:
        if asyncio.get_running_loop().time() > deadline:  # pragma: no cover
            raise AssertionError(
                f"follower stuck at {server.replicator.applied_seq}")
        await asyncio.sleep(0.01)


class TestStreaming:
    def test_follower_tails_applies_and_serves_reads(self, tmp_path):
        async def scenario():
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=str(tmp_path / "primary"))
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with ReasoningServer(
                        follower_config(tmp_path, f"{host}:{port}")) as follower:
                    f_host, f_port = follower.address
                    async with await AsyncClient.connect(host, port) as up:
                        opened = await up.open("pub", SCHEMA, [MVD])
                        assert opened["seq"] == 1
                        # a no-op add neither logs nor carries a fence
                        rededup = await up.add("pub", MVD)
                        assert not rededup["added"] and "seq" not in rededup
                        verdict = await up.add(
                            "pub", "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
                        assert verdict["seq"] == 2
                        await caught_up(follower, verdict["seq"])
                    async with await AsyncClient.connect(f_host,
                                                         f_port) as down:
                        # an unfenced and a fenced read both answer locally
                        assert await down.implies("pub", IMPLIED_FD)
                        fenced = await down.request(
                            "implies", session="pub", dependency=IMPLIED_FD,
                            min_seq=verdict["seq"])
                        assert fenced["implied"] is True

                        # mutations are refused with the primary's address
                        with pytest.raises(ServerError) as info:
                            await down.add("pub", MVD)
                        assert info.value.code == ErrorCode.NOT_PRIMARY
                        assert f"{host}:{port}" in info.value.message

                        # and the fence fails typed once it cannot be met
                        follower.config.fence_wait = 0.05
                        with pytest.raises(ServerError) as info:
                            await down.request("implies", session="pub",
                                               dependency=IMPLIED_FD,
                                               min_seq=10_000)
                        assert info.value.code == ErrorCode.REPLICA_BEHIND

        asyncio.run(scenario())

    def test_only_the_primary_keeps_a_wal_tail(self, tmp_path):
        async def scenario():
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=str(tmp_path / "primary"))
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with ReasoningServer(
                        follower_config(tmp_path, f"{host}:{port}")) as follower:
                    async with await AsyncClient.connect(host, port) as up:
                        seq = (await up.open("pub", SCHEMA))["seq"]
                        for _ in range(25):
                            await up.add("pub", MVD)
                            seq = (await up.retract("pub", MVD))["seq"]
                    assert seq == 51
                    await caught_up(follower, seq)
                    return (primary.store.stats()["tail_records"],
                            follower.store.stats()["tail_records"],
                            follower.store.last_seq)

        # a follower serves no replicate.subscribe, so it keeps no tail
        assert asyncio.run(scenario()) == (51, 0, 51)

    def test_cold_follower_bootstraps_via_reset(self, tmp_path):
        async def scenario():
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=str(tmp_path / "primary"))
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with await AsyncClient.connect(host, port) as up:
                    await up.open("pub", SCHEMA, [MVD])
                    await up.add("pub",
                                 "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
                # compaction folds seqs 1..2 into the snapshot: a cold
                # subscriber can no longer be served a contiguous tail
                primary.store.compact(primary.sessions.snapshot_state())

                follower_cfg = ServeConfig(port=0,
                                           replicate_from=f"{host}:{port}",
                                           replica_id="unit-cold",
                                           replicate_poll=0.2)
                async with ReasoningServer(follower_cfg) as follower:
                    await caught_up(follower, 2)
                    assert follower.replicator.resets == 1
                    f_host, f_port = follower.address
                    async with await AsyncClient.connect(f_host,
                                                         f_port) as down:
                        assert await down.implies("pub", IMPLIED_FD)

        asyncio.run(scenario())

    def test_registered_follower_is_shipped_records_across_compactions(
            self, tmp_path):
        async def scenario():
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=str(tmp_path / "primary"),
                                      store_compact_records=3)
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with await AsyncClient.connect(host, port) as up:
                    await up.open("pub", SCHEMA, [MVD])
                    follower_cfg = follower_config(
                        tmp_path, f"{host}:{port}", idle_ttl=None)
                    async with ReasoningServer(follower_cfg) as follower:
                        await caught_up(follower, 1)
                        for seq in range(2, 8):    # compactions at 3 and 6
                            edit = up.add if seq % 2 == 0 else up.retract
                            await edit("pub", IMPLIED_FD)
                            await caught_up(follower, seq)
                        assert primary.store.stats()["compactions"] == 2
                        assert follower.replicator.resets == 0
                        assert primary.counters["replicate.resets_served"] == 0
                        f_host, f_port = follower.address
                        async with await AsyncClient.connect(
                                f_host, f_port) as down:
                            assert await down.implies("pub", IMPLIED_FD)

        asyncio.run(scenario())

    def test_retained_window_serves_one_behind_and_resets_past_it(
            self, tmp_path):
        async def scenario():
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=str(tmp_path / "primary"),
                                      store_compact_records=2)
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with await AsyncClient.connect(host, port) as up:
                    await up.open("pub", SCHEMA, [MVD])
                    # "slow" registers at seq 1; seq 2 compacts.
                    await up.request("replicate.ack", follower="slow", seq=1)
                    await up.add("pub", IMPLIED_FD)
                    assert primary.store.stats()["compactions"] == 1
                    behind = await up.request(
                        "replicate.subscribe", from_seq=1, follower="slow",
                        wait=0)
                    assert behind.get("reset") is None
                    assert [r["seq"] for r in behind["records"]] == [2]
                    # Three more records while "slow" stays at seq 1: the
                    # compaction at seq 4 keeps only the newest 2 (seqs
                    # 3-4), so seq 2 is gone and "slow" needs a reset.
                    await up.retract("pub", IMPLIED_FD)
                    await up.add("pub", IMPLIED_FD)
                    await up.retract("pub", IMPLIED_FD)
                    assert primary.store.stats()["compactions"] == 2
                    past = await up.request(
                        "replicate.subscribe", from_seq=1, follower="slow",
                        wait=0)
                    assert past["reset"]["last_seq"] == 5
                    within = await up.request(
                        "replicate.subscribe", from_seq=3, follower="slow",
                        wait=0)
                    assert [r["seq"] for r in within["records"]] == [4, 5]

        asyncio.run(scenario())

    def test_follower_survives_a_primary_restart(self, tmp_path):
        async def scenario():
            primary_dir = str(tmp_path / "primary")
            primary_cfg = ServeConfig(port=0, idle_ttl=None,
                                      data_dir=primary_dir)
            async with ReasoningServer(primary_cfg) as primary:
                host, port = primary.address
                async with await AsyncClient.connect(host, port) as up:
                    await up.open("pub", SCHEMA, [MVD])
                follower_cfg = follower_config(tmp_path, f"{host}:{port}",
                                               idle_ttl=None)
                async with ReasoningServer(follower_cfg) as follower:
                    await caught_up(follower, 1)
                    await primary.shutdown()
                    await asyncio.sleep(0.05)
                    assert follower.replicator.state in ("connecting",
                                                         "streaming")
                    # reads keep answering while the primary is away
                    f_host, f_port = follower.address
                    async with await AsyncClient.connect(f_host,
                                                         f_port) as down:
                        assert await down.implies("pub", MVD)

                    restarted = ReasoningServer(ServeConfig(
                        host=host, port=port, idle_ttl=None,
                        data_dir=primary_dir))
                    try:
                        await restarted.start()
                        async with await AsyncClient.connect(host,
                                                             port) as up:
                            await up.add(
                                "pub",
                                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
                        await caught_up(follower, 2)
                        assert follower.replicator.applied_seq == 2
                    finally:
                        await restarted.shutdown()

        asyncio.run(scenario())

    def test_subscribe_against_an_ephemeral_primary_breaks_typed(self):
        async def scenario():
            # no --data-dir: nothing to ship; the follower must not spin
            async with ReasoningServer(ServeConfig(port=0)) as primary:
                host, port = primary.address
                follower_cfg = ServeConfig(port=0,
                                           replicate_from=f"{host}:{port}",
                                           replicate_poll=0.2)
                async with ReasoningServer(follower_cfg) as follower:
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while follower.replicator.state != "broken":
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.01)
                    assert "WAL" in follower.replicator.error

        asyncio.run(scenario())
