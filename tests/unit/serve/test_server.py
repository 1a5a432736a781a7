"""Unit tests for the asyncio reasoning server.

Each test runs server and client inside one ``asyncio.run`` so the
suite needs no pytest-asyncio plugin and can poke at server internals
(inflight counts, gates) deterministically from the same event loop.
"""

import asyncio
import functools
import itertools
import json
import socket
import tracemalloc

import pytest

from repro.serve import (
    AsyncClient,
    ErrorCode,
    ReasoningServer,
    ServeConfig,
    ServerError,
    SessionManager,
)
from repro.attributes import parse_attribute
from repro.core import commands
from repro.core.session import Session
from repro.serve.protocol import ProtocolError

from tests.unit.serve.gated import GatedServer

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
IMPLIED_MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])"
NOT_IMPLIED = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"


def run(coroutine):
    return asyncio.run(coroutine)


class TestSessionManager:
    """Pure bookkeeping — no asyncio, explicit clocks."""

    def test_open_get_close(self):
        manager = SessionManager(max_sessions=4)
        manager.open("a", SCHEMA, [MVD])
        assert "a" in manager and len(manager) == 1
        assert manager.get("a").session.root is manager.peek("a").session.root
        closed = manager.close("a")
        assert closed.name == "a"
        assert "a" not in manager

    def test_open_twice_requires_replace(self):
        manager = SessionManager(max_sessions=4)
        manager.open("a", SCHEMA)
        with pytest.raises(ProtocolError) as info:
            manager.open("a", SCHEMA)
        assert info.value.code == ErrorCode.SESSION_EXISTS
        replaced = manager.open("a", SCHEMA, [MVD], replace=True)
        assert len(replaced.session) == 1

    def test_bad_schema_is_bad_params(self):
        manager = SessionManager(max_sessions=4)
        with pytest.raises(ProtocolError) as info:
            manager.open("a", "R(((")
        assert info.value.code == ErrorCode.BAD_PARAMS
        assert "a" not in manager

    def test_unknown_session_everywhere(self):
        manager = SessionManager(max_sessions=4)
        for call in (manager.get, manager.peek, manager.close):
            with pytest.raises(ProtocolError) as info:
                call("ghost")
            assert info.value.code == ErrorCode.UNKNOWN_SESSION

    def test_lru_eviction_prefers_stale_sessions(self):
        manager = SessionManager(max_sessions=2)
        manager.open("old", SCHEMA, now=0.0)
        manager.open("warm", SCHEMA, now=1.0)
        manager.get("old", now=2.0)  # touch: "warm" is now the LRU victim
        manager.open("new", SCHEMA, now=3.0)
        assert manager.names() == ("old", "new")
        assert manager.counters["serve.evictions.lru"] == 1

    def test_peek_does_not_touch(self):
        manager = SessionManager(max_sessions=2)
        manager.open("a", SCHEMA, now=0.0)
        manager.open("b", SCHEMA, now=1.0)
        manager.peek("a")
        manager.open("c", SCHEMA, now=2.0)  # evicts "a", not "b"
        assert manager.names() == ("b", "c")

    def test_idle_ttl_sweep(self):
        manager = SessionManager(max_sessions=8, idle_ttl=10.0)
        manager.open("stale", SCHEMA, now=0.0)
        manager.open("fresh", SCHEMA, now=0.0)
        manager.get("fresh", now=95.0)
        assert manager.sweep_idle(now=100.0) == 1
        assert manager.names() == ("fresh",)
        assert manager.counters["serve.evictions.idle"] == 1

    def test_no_ttl_never_sweeps(self):
        manager = SessionManager(max_sessions=8, idle_ttl=None)
        manager.open("a", SCHEMA, now=0.0)
        assert manager.sweep_idle(now=1e9) == 0

    def test_max_sessions_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionManager(max_sessions=0)

    def test_reopened_name_gets_a_fresh_epoch(self):
        """close+open and replace both mint new epochs, so a recycled
        name never looks like the session it replaced."""
        manager = SessionManager(max_sessions=4)
        first = manager.open("a", SCHEMA, [MVD])
        manager.close("a")
        second = manager.open("a", SCHEMA)
        assert second.epoch != first.epoch
        assert second.generation == 0  # same (name, generation) as first had
        replaced = manager.open("a", SCHEMA, replace=True)
        assert replaced.epoch not in {first.epoch, second.epoch}


class TestServerOps:
    """The full op surface over a real (in-loop) TCP connection."""

    def test_lifecycle_of_one_session(self):
        async def scenario():
            async with ReasoningServer(ServeConfig()) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    pong = await client.ping()
                    assert pong["pong"] is True and pong["sessions"] == 0

                    opened = await client.open("pub", SCHEMA, [MVD])
                    assert opened == {"name": "pub", "sigma": 1,
                                      "engine": opened["engine"]}

                    assert await client.implies("pub", IMPLIED_FD) is True
                    assert await client.implies("pub", NOT_IMPLIED) is False
                    verdicts = await client.implies_batch(
                        "pub", [IMPLIED_FD, IMPLIED_MVD, NOT_IMPLIED])
                    assert verdicts == [True, True, False]

                    closure = await client.closure("pub", "Pubcrawl(Person)")
                    assert "Person" in closure
                    basis = await client.basis("pub", "Pubcrawl(Person)")
                    assert len(basis) >= 2

                    added = await client.add("pub", NOT_IMPLIED)
                    assert added["added"] is True and added["sigma"] == 2
                    assert await client.implies("pub", NOT_IMPLIED) is True

                    retracted = await client.retract("pub", NOT_IMPLIED)
                    assert retracted["sigma"] == 1
                    assert await client.implies("pub", NOT_IMPLIED) is False

                    metrics = await client.metrics()
                    assert metrics["server"]["sessions"] == 1
                    assert metrics["sessions"]["pub"]["generation"] == 2
                    assert metrics["sessions"]["pub"]["sigma"] == 1
                    codec = metrics["sessions"]["pub"]["codec"]
                    assert set(codec) == {"parse", "render"}
                    assert codec["parse"][0] > 0  # NOT_IMPLIED's sides repeat

                    closed = await client.close_session("pub")
                    assert closed == {"closed": "pub", "sigma": 1}
                    assert (await client.ping())["sessions"] == 0

        run(scenario())

    def test_typed_errors_over_the_wire(self):
        async def scenario():
            async with ReasoningServer(ServeConfig()) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    with pytest.raises(ServerError) as info:
                        await client.implies("ghost", IMPLIED_FD)
                    assert info.value.code == ErrorCode.UNKNOWN_SESSION
                    assert not info.value.retryable

                    await client.open("pub", SCHEMA, [MVD])
                    with pytest.raises(ServerError) as info:
                        await client.implies("pub", "Pubcrawl(Nope) -> λ")
                    assert info.value.code == ErrorCode.BAD_PARAMS

                    with pytest.raises(ServerError) as info:
                        await client.retract("pub", IMPLIED_FD)  # not a member
                    assert info.value.code == ErrorCode.BAD_PARAMS

                    with pytest.raises(ServerError) as info:
                        await client.open("pub", SCHEMA)
                    assert info.value.code == ErrorCode.SESSION_EXISTS

                    with pytest.raises(ServerError) as info:
                        await client.request("open", name="", schema=SCHEMA)
                    assert info.value.code == ErrorCode.BAD_PARAMS

        run(scenario())

    def test_malformed_lines_get_typed_responses(self):
        async def scenario():
            async with ReasoningServer(ServeConfig()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b"this is not json\n")
                    response = json.loads(await reader.readline())
                    assert response["ok"] is False
                    assert response["error"]["code"] == ErrorCode.PARSE_ERROR
                    assert response["id"] is None

                    # id recovered from a structurally broken request
                    writer.write(b'{"v": 99, "id": 42, "op": "ping"}\n')
                    response = json.loads(await reader.readline())
                    assert response["id"] == 42
                    assert (response["error"]["code"]
                            == ErrorCode.INVALID_REQUEST)

                    writer.write(
                        b'{"v": 1, "id": 3, "op": "conjure", "params": {}}\n')
                    response = json.loads(await reader.readline())
                    assert response["error"]["code"] == ErrorCode.UNKNOWN_OP
                finally:
                    writer.close()

        run(scenario())

    def test_blank_lines_are_ignored(self):
        async def scenario():
            async with ReasoningServer(ServeConfig()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b"\n \n")
                    writer.write(b'{"v": 1, "id": 1, "op": "ping"}\n')
                    response = json.loads(await reader.readline())
                    assert response["ok"] is True
                finally:
                    writer.close()

        run(scenario())


def _ping(request_id):
    return b'{"v": 1, "id": %d, "op": "ping"}\n' % request_id


async def _lines_until_eof(reader):
    """Every response line the server sends before it closes."""
    lines = []
    while line := await asyncio.wait_for(reader.readline(), 5):
        lines.append(json.loads(line))
    return lines


class TestFraming:
    """How bytes on a connection become request lines: any split of
    the stream into writes frames the same requests, a line over
    ``max_line_bytes`` ends the connection after the lines before it
    are answered, and a partial line at EOF is dropped."""

    def test_a_request_written_one_byte_at_a_time(self):
        line = (b'{"v": 1, "id": 5, "op": "closure", "params": {"session": '
                b'"pub", "x": "Pubcrawl(Person)"}}\n')

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    expected = await client.closure("pub", "Pubcrawl(Person)")
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for i in range(len(line)):
                        writer.write(line[i:i + 1])
                        await writer.drain()
                        await asyncio.sleep(0.001)
                    response = json.loads(await reader.readline())
                finally:
                    writer.close()
            return expected, response

        expected, response = run(scenario())
        assert response["id"] == 5 and response["ok"]
        assert response["result"]["closure"] == expected

    def test_a_request_split_after_another_in_one_write(self):
        second = _ping(2)

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                try:
                    writer.write(_ping(1) + second[:9])
                    await writer.drain()
                    first = json.loads(await reader.readline())
                    await asyncio.sleep(0.01)
                    writer.write(second[9:20])
                    await writer.drain()
                    await asyncio.sleep(0.01)
                    writer.write(second[20:])
                    return first, json.loads(await reader.readline())
                finally:
                    writer.close()

        first, then = run(scenario())
        assert (first["id"], first["ok"]) == (1, True)
        assert (then["id"], then["ok"]) == (2, True)

    @pytest.mark.parametrize("tail", [b"\n", b""],
                             ids=["terminated", "unterminated"])
    def test_an_over_long_line_closes_after_the_lines_before_it(self, tail):
        limit = 200
        padded = _ping(3)[:-1].ljust(limit) + b"\n"   # exactly the limit

        async def scenario():
            config = ServeConfig(idle_ttl=None, max_line_bytes=limit)
            async with ReasoningServer(config) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                try:
                    writer.write(_ping(1) + _ping(2) + padded
                                 + b"x" * (limit + 1) + tail + _ping(4))
                    lines = await _lines_until_eof(reader)
                finally:
                    writer.close()
                async with await AsyncClient.connect(
                        *server.address) as client:
                    alive = await client.ping()
            return lines, alive

        lines, alive = run(scenario())
        assert [(line["id"], line["ok"]) for line in lines] == [
            (1, True), (2, True), (3, True)]
        assert alive["pong"] is True

    def test_a_partial_line_at_eof_is_ignored(self):
        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                try:
                    writer.write(_ping(1) + _ping(2)[:-1])
                    writer.write_eof()
                    lines = await _lines_until_eof(reader)
                finally:
                    writer.close()
                async with await AsyncClient.connect(
                        *server.address) as client:
                    alive = await client.ping()
                return lines, alive, server.counters["serve.requests"]

        lines, alive, requests = run(scenario())
        assert [(line["id"], line["ok"]) for line in lines] == [(1, True)]
        assert alive["pong"] is True
        assert requests == 2   # the first ping and the probe, no other

    def test_a_peer_that_leaves_mid_burst_leaves_nothing_behind(self):
        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                writer.write(_ping_lines(5000))
                first = json.loads(await reader.readline())
                writer.transport.abort()
                for _ in range(500):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.01)
                others = asyncio.all_tasks() - {asyncio.current_task()}
                return first, set(server._connections), server._tasks, others

        first, connections, parked, others = run(scenario())
        assert first["id"] == 0
        assert connections == set()
        assert not parked and not others

    def test_reads_go_into_a_buffer_the_connection_owns(self):
        # A client on a blocking socket, reading 4 KiB at a time, makes
        # no large allocation itself; a server that allocated a fresh
        # block per read (asyncio's 256 KiB for a plain Protocol)
        # would raise the traced peak by at least one such block.
        def answers(sock, count):
            data = b""
            while data.count(b"\n") < count:
                chunk = sock.recv(4096)
                assert chunk, "server closed early"
                data += chunk
            return data.count(b"\n")

        def client(address):
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(_ping(0))
                answers(sock, 1)
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    base, _ = tracemalloc.get_traced_memory()
                    sock.sendall(_ping_lines(200))
                    answered = answers(sock, 200)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            return answered, peak - base

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                return await asyncio.get_running_loop().run_in_executor(
                    None, client, server.address)

        answered, rise = run(scenario())
        assert answered == 200
        assert rise < 128 * 1024, rise


class TestBackpressureAndDeadlines:
    def test_flooded_connection_gets_typed_overloads(self):
        config = ServeConfig(max_inflight=2, max_pending_per_conn=2,
                             request_timeout=None, idle_ttl=None)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    stuck = [asyncio.ensure_future(
                        client.request("ping", gated=True))
                        for _ in range(2)]
                    while server._inflight < 2:
                        await asyncio.sleep(0.005)

                    with pytest.raises(ServerError) as info:
                        await client.request("ping")
                    assert info.value.code == ErrorCode.OVERLOADED
                    assert info.value.retryable
                    assert server.counters["serve.overloads"] == 1

                    server.gate.set()  # drain the gated pair
                    for result in await asyncio.gather(*stuck):
                        assert result["pong"] is True
                    # capacity is back
                    assert (await client.request("ping"))["pong"] is True

        run(scenario())

    def test_slow_request_times_out_with_typed_error(self):
        config = ServeConfig(request_timeout=0.05, idle_ttl=None)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    with pytest.raises(ServerError) as info:
                        await client.request("ping", gated=True)
                    assert info.value.code == ErrorCode.TIMEOUT
                    assert info.value.retryable
                    assert server.counters["serve.timeouts"] == 1
                    # the connection survives a timed-out request
                    server.gate.set()
                    assert (await client.ping())["pong"] is True

        run(scenario())

    def test_a_parked_request_is_one_task(self):
        """The parked request's deadline runs in its own task, so a wait
        costs one task, not one more for ``asyncio.wait_for``."""
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServeConfig(request_timeout=5.0, idle_ttl=None)
            async with GatedServer(config) as server:
                async with await AsyncClient.connect(
                        *server.address) as client:
                    loop.set_task_factory(counting_factory)
                    try:
                        pending = [
                            asyncio.ensure_future(
                                client.request("ping", gated=True)),
                            asyncio.ensure_future(
                                client.request("ping", gated=True))]
                        while server._inflight < 2:
                            await asyncio.sleep(0.005)
                        server.gate.set()
                        results = await asyncio.gather(*pending)
                    finally:
                        loop.set_task_factory(None)
            return results

        results = run(scenario())
        assert all(result["pong"] for result in results)
        # the test's two request futures, then one task per request
        assert len(created) == 4, created

    def test_request_timeout_stops_implies_batch_between_queries(
            self, monkeypatch):
        """Inline work runs under a soft Deadline of ``request_timeout``
        seconds, which ``implies_batch`` polls between queries.  The
        injected clock advances one second per reading."""
        ticks = itertools.count()
        monkeypatch.setattr(commands, "Deadline", functools.partial(
            commands.Deadline, clock=lambda: float(next(ticks))))
        config = ServeConfig(request_timeout=2.5, idle_ttl=None)

        async def scenario():
            async with ReasoningServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    # two queries read the clock at +1 and +2: in time
                    assert await client.implies_batch(
                        "pub", [IMPLIED_FD, NOT_IMPLIED]) == [True, False]
                    # the third query's check reads +3: past the deadline
                    with pytest.raises(ServerError) as info:
                        await client.implies_batch("pub", [IMPLIED_FD] * 5)
                    assert info.value.code == ErrorCode.TIMEOUT
                    assert server.counters["serve.timeouts"] == 1

        run(scenario())


def _ping_lines(count):
    return b"".join(b'{"v": 1, "id": %d, "op": "ping"}\n' % i
                    for i in range(count))


class TestInlineRequestPath:
    """Requests that do not wait are answered inside the reader loop,
    one line at a time: no task, no queue, TCP backpressure."""

    def test_pipelined_burst_is_answered_in_order(self):
        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                try:
                    writer.write(_ping_lines(100))
                    return [json.loads(await reader.readline())
                            for _ in range(100)]
                finally:
                    writer.close()

        responses = run(scenario())
        assert [response["id"] for response in responses] == list(range(100))
        assert all(response["ok"] for response in responses)

    def test_a_peer_that_stops_reading_is_not_queued_for(self):
        count = 60_000

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                try:
                    writer.write(_ping_lines(count))
                    (conn,) = server._connections
                    transport = conn.transport
                    high = transport.get_write_buffer_limits()[1]
                    peak_buffer = peak_tasks = 0
                    # not reading: sample until the server stops moving
                    answered = -1
                    while server.counters["serve.requests"] != answered:
                        answered = server.counters["serve.requests"]
                        for _ in range(10):
                            await asyncio.sleep(0.01)
                            peak_buffer = max(
                                peak_buffer, transport.get_write_buffer_size())
                            peak_tasks = max(peak_tasks, len(server._tasks))
                    lines = [await reader.readline() for _ in range(count)]
                finally:
                    writer.close()
            return high, peak_buffer, peak_tasks, lines

        high, peak_buffer, peak_tasks, lines = run(scenario())
        assert peak_tasks == 0
        assert peak_buffer <= high + max(map(len, lines))
        responses = [json.loads(line) for line in lines]
        assert [response["id"] for response in responses] == list(range(count))
        assert all(response["ok"] for response in responses)

    def test_requests_that_do_not_wait_create_no_task(self):
        mix = [
            b'{"v": 1, "id": %d, "op": "implies", "params": {"session": '
            b'"pub", "dependency": "' + IMPLIED_FD.encode() + b'"}}\n',
            b'{"v": 1, "id": %d, "op": "closure", "params": {"session": '
            b'"pub", "x": "Pubcrawl(Person)"}}\n',
            b'{"v": 1, "id": %d, "op": "implies", "params": {"session": '
            b'"pub", "dependency": 5}}\n',
            b'{"v": 1, "id": %d, "op": \n',
            b'{"v": 1, "id": %d, "op": "metrics"}\n',
        ]
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                reader, writer = await asyncio.open_connection(host, port)
                loop.set_task_factory(counting_factory)
                try:
                    writer.write(b"".join(mix[i % len(mix)] % i
                                          for i in range(1000)))
                    return [json.loads(await reader.readline())
                            for _ in range(1000)]
                finally:
                    loop.set_task_factory(None)
                    writer.close()

        responses = run(scenario())
        assert created == []
        expected = [(i, True, None) if i % 5 in (0, 1, 4)
                    else (i, False, ErrorCode.BAD_PARAMS) if i % 5 == 2
                    else (None, False, ErrorCode.PARSE_ERROR)
                    for i in range(1000)]
        assert [(response["id"], response["ok"],
                 response.get("error", {}).get("code"))
                for response in responses] == expected

    def test_a_pipelining_connection_does_not_starve_another(self):
        """The reader loop yields once per line, so a connection with
        thousands of requests buffered cannot hold the event loop: a
        second connection's ``health`` is answered within a few of the
        first connection's requests."""
        count = 10_000
        line = (b'{"v": 1, "id": 1, "op": "implies", "params": {"session": '
                b'"pub", "dependency": "' + IMPLIED_FD.encode() + b'"}}\n')

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                flood_reader, flood = await asyncio.open_connection(host, port)
                probe_reader, probe = await asyncio.open_connection(host, port)

                async def drain_flood():
                    return [await flood_reader.readline()
                            for _ in range(count)]

                try:
                    drained = asyncio.ensure_future(drain_flood())
                    flood.write(line * count)
                    answered = server.counters
                    while answered["serve.requests.implies"] < 100:
                        await asyncio.sleep(0)
                    before = answered["serve.requests.implies"]
                    probe.write(b'{"v": 1, "id": 7, "op": "health"}\n')
                    health = json.loads(await probe_reader.readline())
                    during = answered["serve.requests.implies"] - before
                    responses = await drained
                finally:
                    flood.close()
                    probe.close()
            return health, during, responses

        health, during, responses = run(scenario())
        assert health["ok"] and health["result"]["status"] == "ok"
        assert during <= 20, during
        assert len(responses) == count
        assert all(json.loads(response)["ok"] for response in responses)

    def test_backlog_across_connections_sheds_cold_work(self):
        """``shed_cold_at`` reacts to lines other connections have read
        and are waiting to have answered, not only to parked requests;
        a lone pipelining connection leaves no backlog and is never
        shed."""
        config = ServeConfig(max_inflight=4, shed_cold_at=0.5,
                             idle_ttl=None)
        line = b'{"v": 1, "id": 1, "op": "keys", "params": {"session": "pub"}}\n'

        async def pipeline(host, port, connections, depth):
            streams = [await asyncio.open_connection(host, port)
                       for _ in range(connections)]
            try:
                for _reader, writer in streams:
                    writer.write(line * depth)
                return [json.loads(await reader.readline())
                        for reader, _writer in streams
                        for _ in range(depth)]
            finally:
                for _reader, writer in streams:
                    writer.close()

        async def scenario():
            async with ReasoningServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                alone = await pipeline(host, port, 1, 20)
                shed_alone = server.counters["serve.shed_cold"]
                crowded = await pipeline(host, port, 4, 20)
                return alone, shed_alone, crowded, server.counters

        alone, shed_alone, crowded, counters = run(scenario())
        assert shed_alone == 0
        assert all(response["ok"] for response in alone)
        shed = [response for response in crowded if not response["ok"]]
        assert shed and len(shed) == counters["serve.shed_cold"]
        for response in shed:
            assert response["error"]["code"] == ErrorCode.OVERLOADED
            assert "shedding" in response["error"]["message"]


class TestGracefulShutdown:
    def test_drain_delivers_inflight_responses(self):
        config = ServeConfig(request_timeout=None, idle_ttl=None,
                             drain_timeout=10.0)

        async def scenario():
            server = GatedServer(config)
            host, port = await server.start()
            client = await AsyncClient.connect(host, port)
            try:
                inflight = asyncio.ensure_future(
                    client.request("ping", gated=True))
                while server._inflight < 1:
                    await asyncio.sleep(0.005)

                stopping = asyncio.ensure_future(server.shutdown())
                while not server._draining:
                    await asyncio.sleep(0.005)

                # new work is refused while draining...
                with pytest.raises(ServerError) as info:
                    await client.request("ping")
                assert info.value.code == ErrorCode.SHUTTING_DOWN

                # ...but admitted work completes and its response lands
                server.gate.set()
                assert (await inflight)["pong"] is True
                await stopping
            finally:
                await client.close()
                await server.shutdown()

        run(scenario())

    def test_shutdown_is_idempotent_and_unstarted_safe(self):
        async def scenario():
            server = ReasoningServer(ServeConfig())
            await server.shutdown()  # never started: no-op
            await server.start()
            await asyncio.gather(server.shutdown(), server.shutdown())
            assert server._stopped is not None and server._stopped.is_set()

        run(scenario())

    def test_serve_forever_returns_after_shutdown(self):
        async def scenario():
            server = ReasoningServer(ServeConfig(idle_ttl=None))
            await server.start()
            forever = asyncio.ensure_future(
                server.serve_forever(handle_signals=False))
            await asyncio.sleep(0.01)
            assert not forever.done()
            await server.shutdown()
            await asyncio.wait_for(forever, timeout=5)

        run(scenario())


class TestIdleSweeper:
    def test_idle_sessions_are_swept_while_serving(self):
        config = ServeConfig(idle_ttl=0.05, sweep_interval=0.01)

        async def scenario():
            async with ReasoningServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while "pub" in server.sessions:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.02)
                    assert server.counters["serve.evictions.idle"] == 1
                    with pytest.raises(ServerError) as info:
                        await client.implies("pub", IMPLIED_FD)
                    assert info.value.code == ErrorCode.UNKNOWN_SESSION

        run(scenario())


class TestInlineClosures:
    """Every closure is computed inline by the session."""

    def test_workers_other_than_zero_are_refused(self):
        assert ServeConfig(workers=0).workers == 0
        for workers in (1, 2):
            with pytest.raises(ValueError, match="read replicas"):
                ServeConfig(workers=workers)

    def test_fd_implies_uses_the_closure_interval_cache(self):
        """``closure X'`` then an FD ``implies`` with ``X' ≤ X ≤ X'⁺``:
        answered from the interval cache, no kernel run — as locally."""
        lhs = "Pubcrawl(Person, Visit[λ])"    # between X' and X'⁺
        query = f"{lhs} -> Pubcrawl(Person)"

        def counts(session):
            return (session.cache_info().computed,
                    session.cache_info().plan.interval_hits)

        local = Session(parse_attribute(SCHEMA), [MVD])
        local.closure("Pubcrawl(Person)")
        before = counts(local)
        assert local.implies(query) is True
        local_delta = tuple(b - a for a, b in zip(before, counts(local)))
        assert local_delta == (0, 1)

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    assert (await client.closure("pub", "Pubcrawl(Person)")
                            == lhs)
                    session = server.sessions.peek("pub").session
                    before = counts(session)
                    assert await client.implies("pub", query) is True
                    return tuple(b - a
                                 for a, b in zip(before, counts(session)))

        assert run(scenario()) == local_delta

    def test_reopened_name_answers_from_its_own_sigma(self):
        """A name re-opened after close (or replace) restarts at
        generation 0 and must never answer from its predecessor's Σ."""

        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    assert await client.implies("pub", IMPLIED_FD) is True
                    await client.close_session("pub")

                    # Same name, same schema, empty Σ.
                    await client.open("pub", SCHEMA, [])
                    assert await client.implies("pub", IMPLIED_FD) is False

                    # replace=True is the same trap without a close.
                    await client.open("pub", SCHEMA, [MVD], replace=True)
                    assert await client.implies("pub", IMPLIED_FD) is True

        run(scenario())
