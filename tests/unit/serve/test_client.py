"""Unit tests for the sync and async clients.

The sync :class:`Client` blocks, so its server runs in a background
thread with its own event loop; the async tests share one loop with the
server like tests/unit/serve/test_server.py.
"""

import asyncio
import socket
import threading
import tracemalloc

import pytest

from repro.serve import (
    AsyncClient,
    Client,
    ErrorCode,
    ReasoningServer,
    ServeConfig,
    ServerError,
)
from repro.serve.protocol import encode, error_response

from tests.unit.serve.gated import GatedServer

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
NOT_IMPLIED = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"


@pytest.fixture()
def threaded_server():
    """A ReasoningServer on its own thread; yields ``(host, port)``."""
    ready = threading.Event()
    box = {}

    def serve():
        async def main():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                box["address"] = server.address
                ready.set()
                await server._stopped.wait()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "server thread failed to start"
    yield box["address"]
    box["loop"].call_soon_threadsafe(
        lambda: asyncio.ensure_future(box["server"].shutdown()))
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestSyncClient:
    def test_full_session_conversation(self, threaded_server):
        host, port = threaded_server
        with Client.connect(host, port) as client:
            assert client.ping()["pong"] is True
            client.open("pub", SCHEMA, [MVD])
            assert client.implies("pub", IMPLIED_FD) is True
            assert client.implies("pub", NOT_IMPLIED) is False
            assert client.implies_batch(
                "pub", [IMPLIED_FD, NOT_IMPLIED]) == [True, False]
            assert "Person" in client.closure("pub", "Pubcrawl(Person)")
            assert client.basis("pub", "Pubcrawl(Person)")
            client.add("pub", NOT_IMPLIED)
            assert client.implies("pub", NOT_IMPLIED) is True
            client.retract("pub", NOT_IMPLIED)
            metrics = client.metrics("pub")
            assert metrics["sessions"]["pub"]["generation"] == 2
            assert client.close_session("pub") == {"closed": "pub",
                                                   "sigma": 1}

    def test_server_errors_carry_codes(self, threaded_server):
        host, port = threaded_server
        with Client.connect(host, port) as client:
            with pytest.raises(ServerError) as info:
                client.implies("ghost", IMPLIED_FD)
            assert info.value.code == ErrorCode.UNKNOWN_SESSION
            assert "[unknown_session]" in str(info.value)

    def test_two_clients_share_server_state(self, threaded_server):
        host, port = threaded_server
        with Client.connect(host, port) as first:
            first.open("shared", SCHEMA, [MVD])
            with Client.connect(host, port) as second:
                assert second.implies("shared", IMPLIED_FD) is True
            first.close_session("shared")

    def test_id_null_error_raises_instead_of_blocking(self):
        """An ``"id": null`` failure (the server could not decode a
        line) must surface as ServerError for the in-flight request,
        not be skipped until the socket timeout."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def answer_with_idless_failure():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                lines.readline()  # the client's request
                conn.sendall(encode(error_response(
                    None, ErrorCode.PARSE_ERROR, "line is not UTF-8")))

        thread = threading.Thread(target=answer_with_idless_failure,
                                  daemon=True)
        thread.start()
        try:
            with Client.connect(host, port, timeout=30.0) as client:
                with pytest.raises(ServerError) as info:
                    client.ping()
                assert info.value.code == ErrorCode.PARSE_ERROR
        finally:
            listener.close()
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestAsyncClient:
    def test_responses_match_by_id_not_order(self):
        """A fast request overtakes a gated one on the same connection —
        the read loop must route each response to its own future."""
        config = ServeConfig(request_timeout=None, idle_ttl=None)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    slow = asyncio.ensure_future(
                        client.request("ping", gated=True))
                    while server._inflight < 1:
                        await asyncio.sleep(0.005)
                    fast = await client.ping()  # completes while slow waits
                    assert fast["pong"] is True
                    assert not slow.done()
                    server.gate.set()
                    assert (await slow)["pong"] is True

        asyncio.run(scenario())

    def test_pipelined_batch_on_one_connection(self):
        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    verdicts = await asyncio.gather(
                        *(client.implies("pub", IMPLIED_FD)
                          for _ in range(16)))
                    assert verdicts == [True] * 16

        asyncio.run(scenario())

    def test_reads_allocate_no_buffer_per_read(self):
        """The client reads into a buffer it owns: pipelining 200 pings
        raises the traced peak by far less than one 256 KiB read buffer
        (what a plain ``asyncio.Protocol`` has the transport allocate on
        every read)."""
        async def scenario():
            async with ReasoningServer(ServeConfig(idle_ttl=None)) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    assert (await client.ping())["pong"] is True
                    done = asyncio.get_running_loop().create_future()
                    pongs = []

                    def collect(result):
                        # keep a bool, not the answer: 200 retained
                        # answers would dominate the peak
                        pongs.append(result["pong"] is True)
                        if len(pongs) == 200:
                            done.set_result(None)

                    tracemalloc.start()
                    try:
                        tracemalloc.reset_peak()
                        before, _ = tracemalloc.get_traced_memory()
                        for _ in range(200):
                            client.submit(collect, "ping")
                        await done
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    assert all(pongs)
                    assert peak - before < 128 * 1024, peak - before

        asyncio.run(scenario())

    def test_pending_requests_fail_when_server_vanishes(self):
        config = ServeConfig(request_timeout=None, idle_ttl=None,
                             drain_timeout=0.05)

        async def scenario():
            server = GatedServer(config)
            host, port = await server.start()
            client = await AsyncClient.connect(host, port)
            try:
                stuck = asyncio.ensure_future(
                    client.request("ping", gated=True))
                while server._inflight < 1:
                    await asyncio.sleep(0.005)
                await server.shutdown(drain=False)
                with pytest.raises(ConnectionError):
                    await stuck
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_close_fails_outstanding_requests(self):
        config = ServeConfig(request_timeout=None, idle_ttl=None)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                client = await AsyncClient.connect(host, port)
                stuck = asyncio.ensure_future(
                    client.request("ping", gated=True))
                while server._inflight < 1:
                    await asyncio.sleep(0.005)
                await client.close()
                with pytest.raises(ConnectionError):
                    await stuck
                server.gate.set()

        asyncio.run(scenario())


class _StubPeer:
    """A raw in-loop TCP peer whose handler the test scripts —
    for failure shapes a real server never produces on purpose
    (half-written frames, slammed sockets)."""

    def __init__(self, handler):
        self._handler = handler
        self.server = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self._handler, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()

    async def __aexit__(self, exc_type, exc, tb):
        self.server.close()
        await self.server.wait_closed()


class TestAsyncClientTeardownRace:
    """Regressions for the request/_read_loop teardown race: once the
    connection is failing, every request — pending or newly submitted —
    must reject promptly; none may hang on a future nobody resolves."""

    def test_mid_frame_drop_rejects_pending_request_promptly(self):
        async def handler(reader, writer):
            await reader.readline()  # the request
            writer.write(b'{"v": 1, "id": 1, "ok": true, "resu')  # torn frame
            await writer.drain()
            writer.close()

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                client = await AsyncClient.connect(host, port)
                try:
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(client.ping(), timeout=5)
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_request_after_connection_failure_rejects_immediately(self):
        async def handler(reader, writer):
            writer.close()  # slam the door on connect

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                client = await AsyncClient.connect(host, port)
                try:
                    # let the read loop observe the failure and set the mark
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while client._conn_error is None:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.005)
                    # a fresh request must reject without touching the
                    # socket or registering a future — wait_for guards
                    # against the pre-fix hang
                    with pytest.raises(ConnectionError) as info:
                        await asyncio.wait_for(client.ping(), timeout=5)
                    assert "connection is closed" in str(info.value)
                    assert not client._pending
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_pending_and_new_requests_both_fail_after_drop(self):
        gate = asyncio.Event()

        async def handler(reader, writer):
            await reader.readline()
            await gate.wait()
            writer.write(b'{"v": 1, "id"')  # torn frame, then gone
            await writer.drain()
            writer.close()

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                client = await AsyncClient.connect(host, port)
                try:
                    pending = asyncio.ensure_future(client.ping())
                    await asyncio.sleep(0.01)  # request is on the wire
                    gate.set()
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(pending, timeout=5)
                    # the teardown marked the connection: no new future
                    # may ever be parked on this client again
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(client.ping(), timeout=5)
                    assert not client._pending
                finally:
                    await client.close()

        asyncio.run(scenario())


class TestAsyncClientFraming:
    """The client's read buffer: lines split across reads or longer
    than one read, and the two ways a response stream is refused."""

    @staticmethod
    def _answer(request_id, filler=""):
        return encode({"v": 1, "id": request_id, "ok": True,
                       "result": {"pong": True, "filler": filler}})

    def test_long_and_split_lines_are_framed(self):
        long_line = self._answer(1, "x" * 100_000)  # > one read

        async def handler(reader, writer):
            try:
                await reader.readline()
                await reader.readline()
                second = self._answer(2)
                for start in range(0, len(long_line), 7001):
                    writer.write(long_line[start:start + 7001])
                    await writer.drain()
                writer.write(second[:5])
                await writer.drain()
                await asyncio.sleep(0.01)
                writer.write(second[5:])
                await writer.drain()
                await reader.read()
            finally:
                writer.close()

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                async with await AsyncClient.connect(host, port) as client:
                    first, second = await asyncio.wait_for(asyncio.gather(
                        client.request("ping"), client.request("ping")),
                        timeout=5)
                    assert len(first["filler"]) == 100_000
                    assert second == {"pong": True, "filler": ""}
                    assert client._start == client._end == 0

        asyncio.run(scenario())

    def test_line_over_limit_aborts(self):
        async def handler(reader, writer):
            try:
                await reader.readline()
                writer.write(b'{"v": 1, "id": 1, "ok": true, "result": "'
                             + b"x" * 5000)
                await writer.drain()
                await reader.read()
            finally:
                writer.close()

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                client = await AsyncClient.connect(host, port, limit=4096)
                try:
                    with pytest.raises(ConnectionError,
                                       match="exceeds 4096 bytes"):
                        await asyncio.wait_for(client.ping(), timeout=5)
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_undecodable_response_aborts(self):
        async def handler(reader, writer):
            try:
                await reader.readline()
                writer.write(b"not json\n")
                await writer.drain()
                await reader.read()
            finally:
                writer.close()

        async def scenario():
            async with _StubPeer(handler) as (host, port):
                client = await AsyncClient.connect(host, port)
                try:
                    with pytest.raises(ConnectionError,
                                       match="undecodable response"):
                        await asyncio.wait_for(client.ping(), timeout=5)
                finally:
                    await client.close()

        asyncio.run(scenario())
