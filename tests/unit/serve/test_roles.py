"""The node-role matrix: what an ephemeral node, a primary and a
follower (with and without its own store) answer where they differ.

Every expectation here is wire-visible: the ``replicate.status``,
``health``, ``ping`` and ``metrics`` payloads, the ``seq`` fence on a
mutation's answer, the typed refusals, and whether idle sessions are
evicted.
"""

import asyncio
import contextlib

import pytest

from repro.serve import (
    AsyncClient,
    ErrorCode,
    ReasoningServer,
    ServeConfig,
    ServerError,
)

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"

ROLES = ("ephemeral", "primary", "follower", "follower-nostore")

HEALTH_KEYS = ["status", "version", "uptime_s", "sessions", "inflight",
               "draining", "shedding"]
SERVER_METRICS_KEYS = ["uptime_s", "sessions", "inflight", "draining",
                       "counters"]
REPLICA_KEYS = {"primary", "follower_id", "state", "applied_seq", "resets",
                "batches"}


async def caught_up(server, seq, budget=5.0):
    deadline = asyncio.get_running_loop().time() + budget
    while server.replicator.applied_seq < seq:
        assert asyncio.get_running_loop().time() < deadline, (
            f"follower stuck at {server.replicator.applied_seq}")
        await asyncio.sleep(0.01)


@contextlib.asynccontextmanager
async def node(role, tmp_path, **config):
    """Yield ``(client, server, primary_address)`` for one ``role``.

    A follower's primary already holds session ``pub`` (seq 1), and the
    follower has applied it; the other roles start empty.
    """
    if role in ("ephemeral", "primary"):
        data_dir = str(tmp_path / "node") if role == "primary" else None
        async with ReasoningServer(ServeConfig(
                port=0, data_dir=data_dir, **config)) as server:
            async with await AsyncClient.connect(*server.address) as client:
                yield client, server, None
        return
    async with ReasoningServer(ServeConfig(
            port=0, idle_ttl=None,
            data_dir=str(tmp_path / "primary"))) as primary:
        host, port = primary.address
        async with await AsyncClient.connect(host, port) as up:
            await up.open("pub", SCHEMA, [MVD])
        data_dir = (str(tmp_path / "follower") if role == "follower"
                    else None)
        async with ReasoningServer(ServeConfig(
                port=0, data_dir=data_dir, replicate_from=f"{host}:{port}",
                replica_id="role-f1", replicate_poll=0.2,
                **config)) as follower:
            await caught_up(follower, 1)
            async with await AsyncClient.connect(
                    *follower.address) as client:
                yield client, follower, f"{host}:{port}"


@pytest.mark.parametrize("role", ROLES)
def test_replicate_status(role, tmp_path):
    async def scenario():
        async with node(role, tmp_path) as (client, _server, primary):
            status = await client.request("replicate.status")
            if role == "ephemeral":
                assert status == {"role": "ephemeral", "last_seq": 0}
            elif role == "primary":
                assert status == {"role": "primary", "last_seq": 0}
                await client.open("pub", SCHEMA, [MVD])
                await client.request("replicate.ack", follower="f9", seq=1)
                status = await client.request("replicate.status")
                assert list(status) == ["role", "last_seq", "followers"]
                assert status["last_seq"] == 1
                assert status["followers"]["f9"]["acked_seq"] == 1
                assert status["followers"]["f9"]["lag"] == 0
            else:
                assert list(status) == ["role", "last_seq", "replica"]
                assert status["role"] == "replica"
                # a follower's last_seq is its own store's position
                assert status["last_seq"] == (1 if role == "follower" else 0)
                replica = status["replica"]
                assert set(replica) == REPLICA_KEYS
                assert replica["primary"] == primary
                assert replica["follower_id"] == "role-f1"
                assert replica["state"] == "streaming"
                assert replica["applied_seq"] == 1

    asyncio.run(scenario())


@pytest.mark.parametrize("role, extra", [
    ("ephemeral", []),
    ("primary", ["store", "replication"]),
    ("follower", ["store", "replication"]),
    ("follower-nostore", ["replication"]),
])
def test_health_keys(role, extra, tmp_path):
    async def scenario():
        async with node(role, tmp_path) as (client, server, _primary):
            health = await client.health()
            assert list(health) == HEALTH_KEYS + extra
            if "replication" in health:
                status = await client.request("replicate.status")
                # ages and lags may move between the two answers
                assert health["replication"]["role"] == status["role"]
            if "store" in health:
                assert health["store"] == server.store.stats()

    asyncio.run(scenario())


@pytest.mark.parametrize("role, extra", [
    ("ephemeral", []),
    ("primary", ["store"]),
    ("follower", ["store"]),
    ("follower-nostore", []),
])
def test_ping_and_metrics_keys(role, extra, tmp_path):
    async def scenario():
        async with node(role, tmp_path) as (client, _server, _primary):
            ping = await client.ping()
            assert list(ping) == ["pong", "version", "uptime_s", "sessions"]
            metrics = await client.metrics()
            assert list(metrics) == ["server", "sessions"]
            assert list(metrics["server"]) == SERVER_METRICS_KEYS + extra

    asyncio.run(scenario())


@pytest.mark.parametrize("role", ["ephemeral", "primary"])
def test_mutations_carry_seq_only_on_a_primary(role, tmp_path):
    async def scenario():
        async with node(role, tmp_path) as (client, _server, _primary):
            opened = await client.open("pub", SCHEMA, [MVD])
            added = await client.add("pub", IMPLIED_FD)
            unchanged = await client.add("pub", IMPLIED_FD)
            closed = await client.close_session("pub")
            if role == "primary":
                seqs = [opened["seq"], added["seq"], closed["seq"]]
                assert seqs == [1, 2, 3]
            else:
                assert "seq" not in opened and "seq" not in added
                assert "seq" not in closed
            # an add of a present member changes nothing and logs nothing
            assert "seq" not in unchanged

    asyncio.run(scenario())


@pytest.mark.parametrize("role", ["follower", "follower-nostore"])
def test_follower_refuses_mutations_naming_its_primary(role, tmp_path):
    async def scenario():
        async with node(role, tmp_path) as (client, _server, primary):
            for op, params in (
                    ("open", {"name": "x", "schema": SCHEMA}),
                    ("add", {"session": "pub", "dependency": IMPLIED_FD})):
                with pytest.raises(ServerError) as info:
                    await client.request(op, **params)
                assert info.value.code == ErrorCode.NOT_PRIMARY
                assert primary in info.value.message
            # reads still answer locally
            assert await client.implies("pub", MVD)

    asyncio.run(scenario())


@pytest.mark.parametrize("op, params", [
    ("replicate.subscribe", {"from_seq": 0}),
    ("replicate.ack", {"follower": "f1", "seq": 1}),
])
def test_ephemeral_node_refuses_replication(op, params, tmp_path):
    async def scenario():
        async with node("ephemeral", tmp_path) as (client, _server, _p):
            with pytest.raises(ServerError) as info:
                await client.request(op, **params)
            assert info.value.code == ErrorCode.BAD_PARAMS
            assert "replication needs a WAL" in info.value.message
            assert not info.value.retryable

    asyncio.run(scenario())


@pytest.mark.parametrize("role, evicts", [
    ("ephemeral", True),
    ("primary", True),
    ("follower", False),
    ("follower-nostore", False),
])
def test_only_a_follower_keeps_idle_sessions(role, evicts, tmp_path):
    async def scenario():
        async with node(role, tmp_path, idle_ttl=0.05,
                        sweep_interval=0.01) as (client, server, _primary):
            if role in ("ephemeral", "primary"):
                await client.open("pub", SCHEMA, [MVD])
            await asyncio.sleep(0.3)
            assert ("pub" not in server.sessions) is evicts
            assert server.counters["serve.evictions.idle"] == int(evicts)

    asyncio.run(scenario())
