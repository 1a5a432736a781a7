"""Clients for the reasoning server: a pipelining async one, a simple
sync one.

:class:`AsyncClient` keeps any number of requests in flight on one
connection (it is the connection's :class:`asyncio.BufferedProtocol`,
reading into a buffer it owns, and matches responses to requests by id
as they are read — the server may answer out of order), which is what
the load generator and the ``implies_batch``-heavy workloads want; a
follower's replicator takes its answers by callback, inside the read
callback.
:class:`Client` is the blocking convenience used by the CLI
(``repro query --connect``) and by scripts: one request at a time over a
plain socket.

Both raise :class:`ServerError` (carrying the typed wire
:attr:`~ServerError.code`) for failure responses, and
:class:`ConnectionError` when the server goes away mid-request.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Iterable

from .protocol import (
    RETRYABLE,
    ProtocolError,
    Request,
    decode_response,
    encode,
)

__all__ = ["ServerError", "AsyncClient", "Client"]

#: The least free space :class:`AsyncClient`'s read buffer offers per
#: read.
_READ_SIZE = 16384


class ServerError(Exception):
    """A failure response from the server, with its typed error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request later can succeed
        (``overloaded`` / ``timeout``)."""
        return self.code in RETRYABLE


def _result_or_raise(response: dict[str, Any]) -> dict[str, Any]:
    if response.get("ok"):
        return response.get("result", {})
    error = response.get("error") or {}
    raise ServerError(error.get("code", "internal"),
                      error.get("message", "malformed error response"))


class _OpsMixin:
    """The op surface shared by both clients (thin wrappers over
    ``request``; see docs/SERVER.md for params and results)."""

    def _request(self, op: str, **params: Any):
        raise NotImplementedError  # pragma: no cover

    def ping(self):
        return self._request("ping")

    def health(self):
        return self._request("health")

    def open(self, name: str, schema: str,
             dependencies: Iterable[str] = (), *,
             engine: str | None = None, replace: bool = False):
        params: dict[str, Any] = {"name": name, "schema": schema,
                                  "dependencies": list(dependencies)}
        if engine is not None:
            params["engine"] = engine
        if replace:
            params["replace"] = True
        return self._request("open", **params)

    def add(self, session: str, dependency: str):
        return self._request("add", session=session, dependency=dependency)

    def retract(self, session: str, dependency: str):
        return self._request("retract", session=session, dependency=dependency)

    def implies(self, session: str, dependency: str):
        return self._map(
            self._request("implies", session=session, dependency=dependency),
            lambda result: result["implied"])

    def implies_batch(self, session: str, dependencies: Iterable[str]):
        return self._map(
            self._request("implies_batch", session=session,
                          dependencies=list(dependencies)),
            lambda result: result["verdicts"])

    def closure(self, session: str, x: str):
        return self._map(self._request("closure", session=session, x=x),
                         lambda result: result["closure"])

    def basis(self, session: str, x: str):
        return self._map(self._request("basis", session=session, x=x),
                         lambda result: result["basis"])

    def cover(self, session: str):
        return self._map(self._request("cover", session=session),
                         lambda result: result["cover"])

    def keys(self, session: str):
        return self._map(self._request("keys", session=session),
                         lambda result: result["keys"])

    def check4nf(self, session: str):
        return self._request("check4nf", session=session)

    def is_redundant(self, session: str, dependency: str):
        return self._map(
            self._request("is_redundant", session=session,
                          dependency=dependency),
            lambda result: result["redundant"])

    def metrics(self, session: str | None = None):
        if session is None:
            return self._request("metrics")
        return self._request("metrics", session=session)

    def close_session(self, session: str):
        return self._request("close", session=session)

    def replicate_subscribe(self, from_seq: int, *,
                            max_records: int | None = None,
                            wait: float | None = None,
                            follower: str | None = None):
        params: dict[str, Any] = {"from_seq": from_seq}
        if max_records is not None:
            params["max_records"] = max_records
        if wait is not None:
            params["wait"] = wait
        if follower is not None:
            params["follower"] = follower
        return self._request("replicate.subscribe", **params)

    def replicate_ack(self, follower: str, seq: int):
        return self._request("replicate.ack", follower=follower, seq=seq)

    def replicate_status(self):
        return self._request("replicate.status")


class AsyncClient(_OpsMixin, asyncio.BufferedProtocol):
    """Pipelining asyncio client; create via :meth:`connect`.

    The client is its connection's protocol: the transport reads
    straight into ``_buffer`` (no allocation per read), and
    :meth:`buffer_updated` frames the response lines of
    ``_buffer[_start:_end]`` and hands each to the request it answers —
    a future that :meth:`request` awaits, or a callback given to
    :meth:`submit`, which runs before ``buffer_updated`` returns.  The
    transport holds a view of the buffer while ``buffer_updated`` runs,
    so only :meth:`get_buffer` moves or grows it.  It never shrinks: it
    keeps the room of the longest response it has framed, at most about
    twice ``limit``.  (On perfbench's edit workload, giving that room
    back after a follower's bootstrap line raised the follower's minor
    page faults from 0.05 to 0.11 per request.)  A request's bytes are
    in the transport once it is sent, and every request waits for its
    answer, so the client keeps no write flow control of its own.

    >>> client = await AsyncClient.connect(host, port)   # doctest: +SKIP
    >>> await client.open("s", "R(A, B, C)", ["R(A) -> R(B)"])  # doctest: +SKIP
    >>> await client.implies("s", "R(A) -> R(B)")        # doctest: +SKIP
    True
    """

    def __init__(self, limit: int = 1 << 20) -> None:
        self._limit = limit
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray(_READ_SIZE)
        self._start = self._end = 0
        #: Request id -> the future or callback its response goes to.
        self._pending: dict[int, Any] = {}
        self._next_id = 1
        #: First failure that tore the connection down; once set, every
        #: later request is rejected immediately (see :meth:`request`).
        self._conn_error: Exception | None = None
        self._lost = asyncio.get_running_loop().create_future()

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      limit: int = 1 << 20) -> "AsyncClient":
        # The limit must cover the largest line the server may emit
        # (ServeConfig.max_line_bytes, 1 MiB) — check4nf on a wide
        # schema can list hundreds of KB of violations in one response.
        _transport, client = await asyncio.get_running_loop(
        ).create_connection(lambda: cls(limit), host, port)
        return client

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        """Close the connection; outstanding requests fail."""
        self._fail_pending(ConnectionError("client closed"))
        if self._transport is not None:
            self._transport.close()
            await self._lost

    # -- plumbing ----------------------------------------------------------

    async def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request; await its (possibly out-of-order) response.

        Raises :class:`ConnectionError` *promptly* once the connection
        has failed: a request submitted after (or racing with) the
        teardown must never register a future nobody will ever resolve
        — ``_fail_pending`` marks the connection dead before it rejects
        the in-flight futures, and :meth:`_send` observes the mark.
        """
        future = asyncio.get_running_loop().create_future()
        request_id = self._send(future, op, params)
        try:
            response = await future
        finally:
            self._pending.pop(request_id, None)
        return _result_or_raise(response)

    def submit(self, callback: Callable[[Any], None], op: str, /,
               **params: Any) -> None:
        """Send one request without waiting for it: ``callback`` gets
        its result, or the :class:`ServerError` or
        :class:`ConnectionError` instead of one, inside the read
        callback that receives the answer."""
        self._send(callback, op, params)

    # the mixin's wrappers return the coroutine from request()
    _request = request

    @staticmethod
    async def _map(awaitable, extract):
        return extract(await awaitable)

    def _send(self, waiter: Any, op: str, params: dict[str, Any]) -> int:
        if self._conn_error is not None:
            raise ConnectionError(
                f"connection is closed ({self._conn_error})"
            ) from self._conn_error
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = waiter
        self._transport.write(encode(Request(request_id, op,
                                             params).as_dict()))
        return request_id

    # -- the protocol --------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        buffer, start, end = self._buffer, self._start, self._end
        if len(buffer) - end < _READ_SIZE:
            size = end - start
            if len(buffer) - size < _READ_SIZE:
                grown = bytearray(2 * len(buffer))
                grown[:size] = buffer[start:end]
                self._buffer = buffer = grown
            else:
                buffer[:size] = buffer[start:end]
            self._start, self._end = 0, size
            end = size
        return memoryview(buffer)[end:]

    def buffer_updated(self, nbytes: int) -> None:
        buffer, start = self._buffer, self._start
        # only the new bytes can end the buffered partial line
        scanned = self._end
        self._end = stop = scanned + nbytes
        end = buffer.find(b"\n", scanned, stop)
        try:
            while end >= 0:
                self._deliver(decode_response(bytes(buffer[start:end + 1])))
                start = end + 1
                end = buffer.find(b"\n", start, stop)
        except ProtocolError as error:
            self._abort(ConnectionError(f"undecodable response: {error}"))
            return
        if start == stop:
            self._start = self._end = 0
            return
        self._start = start
        if stop - start > self._limit:
            self._abort(ConnectionError(
                f"response line exceeds {self._limit} bytes"))

    def connection_lost(self, exc: Exception | None) -> None:
        self._fail_pending(ConnectionError("server closed the connection"))
        self._lost.set_result(None)

    def _deliver(self, response: dict[str, Any]) -> None:
        waiter = self._pending.pop(response.get("id"), None)
        if isinstance(waiter, asyncio.Future):
            if not waiter.done():
                waiter.set_result(response)
        elif waiter is not None:
            try:
                result = _result_or_raise(response)
            except ServerError as error:
                result = error
            waiter(result)

    def _abort(self, error: Exception) -> None:
        self._fail_pending(error)
        self._transport.close()

    def _fail_pending(self, error: Exception) -> None:
        # Mark the connection dead *first*: a request() racing with this
        # teardown either registered its future before now (it gets the
        # exception below) or checks the mark and rejects immediately —
        # in neither case can it hang on a future nobody resolves.
        if self._conn_error is None:
            self._conn_error = error
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            if not isinstance(waiter, asyncio.Future):
                waiter(error)
            elif not waiter.done():
                waiter.set_exception(error)


class Client(_OpsMixin):
    """Blocking one-request-at-a-time client (CLI and scripts).

    >>> with Client.connect(host, port) as client:      # doctest: +SKIP
    ...     client.open("s", "R(A, B, C)", ["R(A) -> R(B)"])
    ...     client.implies("s", "R(A) -> R(B)")
    True
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self._next_id = 1

    @classmethod
    def connect(cls, host: str, port: int, *,
                timeout: float | None = 10.0) -> "Client":
        return cls(socket.create_connection((host, port), timeout=timeout))

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    # -- plumbing ----------------------------------------------------------

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request and block for its response."""
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(encode(Request(request_id, op, params).as_dict()))
        while True:
            line = self._file.readline()
            if not line or not line.endswith(b"\n"):
                raise ConnectionError("server closed the connection")
            response = decode_response(line)
            if response.get("id") == request_id:
                return _result_or_raise(response)
            if response.get("id") is None and not response.get("ok"):
                # An id-less failure means the server could not decode a
                # line; with one request in flight it can only be ours,
                # so raise now rather than block until the socket times
                # out waiting for a response that will never come.
                _result_or_raise(response)
            # A response to an id we no longer track (cannot happen with
            # sequential use); keep reading for ours.

    _request = request

    @staticmethod
    def _map(result, extract):
        return extract(result)
