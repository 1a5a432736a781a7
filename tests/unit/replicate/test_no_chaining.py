"""Only a primary ships its WAL: a follower pointed at another
follower stops with the typed ``not_primary`` error instead of
streaming a second-hand log."""

import asyncio

import pytest

from repro.serve import (
    AsyncClient,
    ErrorCode,
    ReasoningServer,
    ServeConfig,
    ServerError,
)

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"


async def until(predicate, budget=5.0):
    deadline = asyncio.get_running_loop().time() + budget
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


def test_a_follower_of_a_follower_breaks_with_not_primary(tmp_path):
    async def scenario():
        async with ReasoningServer(ServeConfig(
                port=0, data_dir=str(tmp_path / "primary"))) as primary:
            p_address = "%s:%d" % primary.address
            async with await AsyncClient.connect(*primary.address) as up:
                await up.open("pub", SCHEMA)
            async with ReasoningServer(ServeConfig(
                    port=0, data_dir=str(tmp_path / "middle"),
                    replicate_from=p_address, replica_id="middle",
                    replicate_poll=0.2)) as middle:
                await until(lambda: middle.replicator.applied_seq == 1)
                m_address = "%s:%d" % middle.address
                async with ReasoningServer(ServeConfig(
                        port=0, data_dir=str(tmp_path / "leaf"),
                        replicate_from=m_address, replica_id="leaf",
                        replicate_poll=0.2)) as leaf:
                    async with await AsyncClient.connect(
                            *leaf.address) as client:
                        async def state():
                            status = await client.request("replicate.status")
                            return status["replica"]

                        deadline = asyncio.get_running_loop().time() + 5.0
                        replica = await state()
                        while replica["state"] != "broken":
                            assert (asyncio.get_running_loop().time()
                                    < deadline), replica
                            await asyncio.sleep(0.02)
                            replica = await state()
                    assert replica["error"].startswith("not_primary: ")
                    assert p_address in replica["error"]
                    assert replica["applied_seq"] == 0
                    assert "pub" not in leaf.sessions

                async with await AsyncClient.connect(
                        *middle.address) as client:
                    # the middle node registered no follower of its own
                    status = await client.request("replicate.status")
                    assert "followers" not in status
                    for op, params in (
                            ("replicate.subscribe", {"from_seq": 0}),
                            ("replicate.ack", {"follower": "x", "seq": 1})):
                        with pytest.raises(ServerError) as info:
                            await client.request(op, **params)
                        assert info.value.code == ErrorCode.NOT_PRIMARY
                        assert p_address in info.value.message

    asyncio.run(scenario())
