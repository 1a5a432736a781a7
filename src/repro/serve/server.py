"""The asyncio reasoning server: sessions over TCP.

The server exposes :class:`repro.core.session.Session` as a network
service speaking the :mod:`repro.serve.protocol` wire format.  Four
concerns shape the design:

* **Session management** — :class:`~repro.serve.sessions.SessionManager`
  owns named sessions with LRU eviction (``max_sessions``) and
  idle-TTL eviction (``idle_ttl``), each counted and traced
  (``serve.evict`` spans).

* **One role per node** — a follower, a primary or an ephemeral node,
  chosen once from the config; the role object
  (:mod:`repro.replicate.role`) supplies every hook in which they
  differ, so the server never asks which node it is.

* **Inline closures** — every closure is computed in the event loop
  by the session itself (Algorithm 5.1 is a sequential fixpoint per
  left-hand side; shipping one to another process costs more than
  computing it).  Reads scale across cores through read replicas
  (:mod:`repro.replicate`), one process each.

* **Backpressure + deadlines** — each connection is an
  :class:`asyncio.BufferedProtocol` that reads into a buffer it owns
  (no allocation per read) and answers a request that does not wait
  in ``buffer_updated``, at most ``_LINES_PER_TURN`` lines before the
  other connections get a turn (``call_soon``).  While the transport's
  write buffer is over its high-water mark (``pause_writing``) it
  answers nothing and reads nothing; a connection waiting for its turn
  is the *backlog* that ``shed_cold_at`` counts.  Requests that wait
  are parked as tasks under ``request_timeout``, at most
  ``max_inflight`` server-wide and ``max_pending_per_conn`` per
  connection; past a cap a request gets an immediate typed
  ``overloaded`` error.  On SIGTERM the server stops accepting,
  answers new requests with ``shutting_down``, drains parked work,
  then closes the transports and the store.

Instrumentation: an always-on :class:`~repro.obs.Tally` reported by
the ``metrics`` op and mirrored into the installed observer, plus
:mod:`repro.obs` spans (``serve.request``, ``serve.evict``) when one
is installed.  Span parenting is exact for inline requests and
best-effort across parked ones — see docs/SERVER.md.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any

from ..core import commands
from ..exceptions import ReproError
from ..obs import Tally, get_observer
from ..store import SessionStore
from .faults import FaultAction, FaultInjector, FaultPlan
from .protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    Request,
    decode_request,
    encode,
    error_response,
    ok_response,
)
from .sessions import ManagedSession, SessionManager

__all__ = ["ServeConfig", "ManagedSession", "SessionManager",
           "ReasoningServer"]


# --------------------------------------------------------------------------
# Configuration

@dataclass
class ServeConfig:
    """Tunables for :class:`ReasoningServer` (defaults suit tests/dev)."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port; :meth:`ReasoningServer.start`
    #: returns the actual address.
    port: int = 0
    #: Must be ``0``: closures are computed inline.  Kept so configs
    #: that spell out ``workers=0`` still load; any other value is
    #: refused.
    workers: int = 0
    #: LRU cap on concurrently open sessions.
    max_sessions: int = 64
    #: Seconds of inactivity before a session is evicted (``None`` = never).
    idle_ttl: float | None = 300.0
    #: Server-wide cap on parked requests (the ones that wait).
    max_inflight: int = 64
    #: Per-connection cap on parked requests.
    max_pending_per_conn: int = 32
    #: Deadline in seconds on a parked request's wait and between
    #: ``implies_batch`` queries (``None`` = no deadline).
    request_timeout: float | None = 30.0
    #: How long :meth:`ReasoningServer.shutdown` waits for parked
    #: requests before giving up on them.
    drain_timeout: float = 10.0
    #: Cadence of the idle-TTL sweep task.
    sweep_interval: float = 1.0
    #: Maximum accepted request line length in bytes.
    max_line_bytes: int = 1 << 20
    #: Graceful load shedding: with parked requests plus backlog at or
    #: above this fraction of ``max_inflight``, requests needing a
    #: *cold* closure are rejected ``overloaded`` while hot cache hits
    #: keep being served (``None`` disables — the default).
    shed_cold_at: float | None = None
    #: Deterministic fault injection for tests (see
    #: :mod:`repro.serve.faults`); ``None`` = no faults — production.
    fault_plan: FaultPlan | None = None
    #: Durable session persistence (see :mod:`repro.store` and
    #: docs/PERSISTENCE.md); ``None`` = in-memory only.
    data_dir: str | None = None
    #: WAL durability level: ``always`` / ``interval`` / ``off``.
    fsync: str = "interval"
    #: Compact once the live WAL segment holds this many records …
    store_compact_records: int = 4096
    #: … or this many bytes, whichever comes first.
    store_compact_bytes: int = 1 << 22
    #: ``"HOST:PORT"`` of a primary to replicate from: makes this node
    #: a read-only follower that never evicts idle sessions (see
    #: docs/REPLICATION.md).
    replicate_from: str | None = None
    #: Stable follower id for the primary's lag table (default: this
    #: node's own bound address).
    replica_id: str | None = None
    #: How long a fenced read (``min_seq``) waits for the replication
    #: tail before answering the typed ``replica_behind``.
    fence_wait: float = 2.0
    #: Follower-side long-poll duration per ``replicate.subscribe``.
    replicate_poll: float = 5.0
    #: Maximum records shipped per replication batch.
    replicate_batch: int = 256
    #: Primary-side cap on a subscribe long-poll (keeps a slow request
    #: deadline from being consumed entirely by the poll).
    replicate_max_wait: float = 25.0

    def __post_init__(self) -> None:
        if self.workers != 0:
            raise ValueError(
                f"workers={self.workers!r}: the server has no worker pool "
                f"and computes closures inline; scale reads across cores "
                f"with read replicas (replicate_from, docs/REPLICATION.md)")


# --------------------------------------------------------------------------
# The server

#: Lines one connection answers per event-loop turn before the other
#: connections get theirs.
_LINES_PER_TURN = 2

#: The least free space a connection's read buffer offers per read.
_READ_SIZE = 16384


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames request lines, answers them in
    turns, holds its parked requests.

    The transport reads straight into ``_buffer``; ``_buffer[_start:_end]``
    is received and not yet answered.  The transport holds a view of the
    buffer while :meth:`buffer_updated` runs, so only :meth:`get_buffer`
    moves or resizes it.
    """

    __slots__ = ("server", "transport", "parked", "_buffer", "_start",
                 "_end", "_writable", "_eof", "_turn")

    def __init__(self, server: "ReasoningServer") -> None:
        self.server = server
        self.parked: set[asyncio.Task] = set()
        self._buffer = bytearray(_READ_SIZE)
        self._start = self._end = 0
        #: ``False`` from ``pause_writing`` until ``resume_writing``.
        self._writable = True
        self._eof = False
        #: The scheduled next turn (counted in the server's backlog).
        self._turn: asyncio.Handle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.counters.add("serve.connections")

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        if self._turn is not None:
            self._turn.cancel()
            self.server._backlog -= 1

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
        elif start == end and len(buffer) > _READ_SIZE:
            # a long line has been answered: give its room back
            self._buffer = buffer = bytearray(_READ_SIZE)
            self._start = self._end = end = 0
        return memoryview(buffer)[end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        if self._end - self._start > 2 * self.server.config.max_line_bytes:
            self.transport.pause_reading()
        self._handle()

    def eof_received(self) -> bool:
        self._eof = True
        self._handle()
        return True  # _handle closes once the buffered lines are answered

    def pause_writing(self) -> None:
        self._writable = False
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writable = True
        self._schedule()  # not inline: the transport is mid-write

    def _schedule(self) -> None:
        if self._turn is None:
            self.server._backlog += 1
            self._turn = asyncio.get_running_loop().call_soon(
                self._handle, True)

    def _handle(self, turn: bool = False) -> None:
        """Answer up to ``_LINES_PER_TURN`` buffered lines, then take
        another turn, read on, or close."""
        if turn:
            self._turn = None
            self.server._backlog -= 1
        elif self._turn is not None:
            return  # the scheduled turn answers what arrived
        transport, buffer = self.transport, self._buffer
        limit = self.server.config.max_line_bytes
        start, stop = self._start, self._end
        for _ in range(_LINES_PER_TURN):
            end = buffer.find(b"\n", start, stop)
            if (end < 0 or end - start > limit or not self._writable
                    or transport.is_closing()):
                break
            line = bytes(buffer[start:end + 1])
            start = end + 1
            if line.strip():
                self.server._admit(self, line)
        if start == stop:
            start = stop = self._end = 0
        self._start = start
        if not self._writable or transport.is_closing():
            return  # resume_writing schedules the next turn
        end = buffer.find(b"\n", start, stop)
        pending = stop - start
        if (end - start > limit
                or (end < 0 and (self._eof or pending > limit))):
            # an over-long line cannot be resynchronised; at EOF a
            # trailing partial line is ignored
            transport.close()
            return
        if end >= 0:
            self._schedule()  # more lines, after the other connections
        if pending <= limit:
            transport.resume_reading()

    def send(self, message: dict[str, Any]) -> None:
        """Write one response frame (one ``write``: never interleaved)."""
        if not self.transport.is_closing():
            self.transport.write(encode(message))


class ReasoningServer:
    """The asyncio TCP front-end over :class:`SessionManager`.

    ``async with`` the server, or call :meth:`start` / :meth:`shutdown`
    explicitly — the store and connections are released on exception
    paths too.

    >>> import asyncio
    >>> from repro.serve.client import AsyncClient
    >>> async def demo():
    ...     async with ReasoningServer() as server:
    ...         host, port = server.address
    ...         async with await AsyncClient.connect(host, port) as client:
    ...             await client.open(
    ...                 "pub", "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
    ...                 ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
    ...             return await client.implies(
    ...                 "pub", "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
    >>> asyncio.run(demo())
    True
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.counters = Tally()
        self.faults: FaultInjector | None = (
            FaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None else None)
        # imported lazily: repro.replicate imports this module
        from ..replicate import follower, primary, role
        #: Every hook in which the nodes differ (:mod:`repro.replicate.role`).
        self.role: role.Role = (
            follower.FollowerRole if self.config.replicate_from is not None
            else primary.PrimaryRole if self.config.data_dir is not None
            else role.Role)(self)
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            idle_ttl=self.config.idle_ttl if self.role.sweeps_idle else None,
            counters=self.counters)
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        #: Parked requests: the only requests the server holds.
        self._tasks: set[asyncio.Task] = set()
        #: Backlog: connections holding a received line and waiting for
        #: their turn in the event loop (at most one count each).
        self._backlog = 0
        self._connections: set[_Connection] = set()
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._sweeper: asyncio.Task | None = None
        self._started_at = time.monotonic()
        self._admin_handlers = self._bind_admin_handlers()

    @property
    def _inflight(self) -> int:
        return len(self._tasks)

    @property
    def store(self) -> SessionStore | None:
        """The durable store (``data_dir``), opened by :meth:`start`."""
        return self.role.store

    @property
    def replicator(self) -> Any:
        """A follower's ``Replicator`` (built by :meth:`start`), or None."""
        return self.role.replicator

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    async def start(self) -> tuple[str, int]:
        """Recover durable state, bind, start the sweeper."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self.role.recover()
        self._stopped = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._started_at = time.monotonic()
        if self.sessions.idle_ttl is not None:
            self._sweeper = asyncio.get_running_loop().create_task(
                self._sweep_loop())
        self.role.start(self._address)
        return self._address

    async def __aenter__(self) -> "ReasoningServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain.  Call as soon as
        the server is started — before announcing readiness — so an
        early signal cannot hit the default (non-draining) handler."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown()))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without signal support

    async def serve_forever(self, *, handle_signals: bool = True) -> None:
        """Run until :meth:`shutdown` (or SIGTERM/SIGINT) completes."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        if handle_signals:
            self.install_signal_handlers()
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain parked work, close the store.

        Idempotent; concurrent callers all wait for the first shutdown
        to finish.  With ``drain=True`` (the SIGTERM path) requests
        already parked get up to ``drain_timeout`` seconds to finish
        and their responses are delivered before connections close.
        """
        if self._stopped is None:
            return  # never started
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        await self.role.stop()
        if self._server is not None:
            # stop accepting; wait_closed() would wait for every
            # connection to end (Python 3.12+), and they close below
            self._server.close()
        if self._tasks:
            _done, pending = await asyncio.wait(
                set(self._tasks),
                timeout=self.config.drain_timeout if drain else 0)
            for task in pending:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for conn in list(self._connections):
            conn.transport.close()
        if self._sweeper is not None:
            self._sweeper.cancel()
            await asyncio.gather(self._sweeper, return_exceptions=True)
            self._sweeper = None
        self.role.close()
        self._stopped.set()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_interval)
            self.sessions.sweep_idle()

    # -- connection handling -----------------------------------------------

    def _admit(self, conn: _Connection, line: bytes) -> None:
        """The request path: decode, gate, answer — or park if it waits."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            self.counters.add("serve.errors")
            self.counters.add(f"serve.errors.{error.code}")
            conn.send(error_response(_recover_id(line), error.code,
                                     error.message))
            return
        if request.op == "health":
            # Liveness must stay observable when the server is sick:
            # health bypasses backpressure, draining refusal and fault
            # injection, and never counts against the inflight caps.
            self.counters.add("serve.requests")
            self.counters.add("serve.requests.health")
            conn.send(ok_response(request.id, self._op_health()))
            return
        if self._draining:
            conn.send(error_response(
                request.id, ErrorCode.SHUTTING_DOWN,
                "server is draining for shutdown"))
            return
        if (len(conn.parked) >= self.config.max_pending_per_conn
                or self._inflight >= self.config.max_inflight):
            self.counters.add("serve.overloads")
            conn.send(error_response(
                request.id, ErrorCode.OVERLOADED,
                f"server at capacity (inflight={self._inflight}, "
                f"connection pending={len(conn.parked)}); retry later"))
            return
        fault = (self.faults.decide(request.op)
                 if self.faults is not None else None)
        if fault is None:
            self._serve(conn, request)
        else:
            self._park(conn, self._faulted(conn, request, fault))

    def _serve(self, conn: _Connection, request: Request,
               fault: FaultAction | None = None) -> None:
        """Dispatch a request and answer it, park it if it waits, or
        hand the role a reply callback if the role answers it later."""
        started = time.monotonic()
        span = get_observer().span("serve.request", op=request.op,
                                   id=str(request.id))
        try:
            result = self._dispatch(request)
        except Exception as error:  # noqa: BLE001 — mapped by _answer
            result = error
        if asyncio.iscoroutine(result):
            self._park(conn, self._finish(conn, request, started, span,
                                          result, fault))
        elif callable(result):
            # held by the role, which answers it through this callback
            result(partial(self._answer, conn, request, started, span,
                           fault=fault))
        else:
            self._answer(conn, request, started, span, result, fault)

    def _park(self, conn: _Connection, waiting: Any) -> None:
        """Run a request that waits as a task, held until answered."""
        task = asyncio.get_running_loop().create_task(waiting)
        for parked in (self._tasks, conn.parked):
            parked.add(task)
            task.add_done_callback(parked.discard)

    async def _faulted(self, conn: _Connection, request: Request,
                       fault: FaultAction) -> None:
        self.counters.add("serve.fault.injected")
        self.counters.add(f"serve.fault.{fault.kind}")
        if not await self._inject_pre(conn, request, fault):
            self._serve(conn, request, fault)

    async def _finish(self, conn: _Connection, request: Request,
                      started: float, span: Any, waiting: Any,
                      fault: FaultAction | None) -> None:
        """Await a parked request under ``request_timeout``; answer it."""
        try:
            result = await _within(self.config.request_timeout, waiting)
        except asyncio.CancelledError:
            with span:  # shutdown cancelled the wait: close its span
                raise
        except Exception as error:  # noqa: BLE001 — mapped by _answer
            result = error
        self._answer(conn, request, started, span, result, fault)

    def _answer(self, conn: _Connection, request: Request, started: float,
                span: Any, result: Any,
                fault: FaultAction | None) -> None:
        """Deliver a result or its typed error (inline and parked)."""
        with span:
            if isinstance(result, Exception):
                code, message = self._error(result)
                span.set(error=code)
                conn.send(error_response(request.id, code, message))
            else:
                span.set(ok=True)
                self._deliver(conn, request, result, fault)
        get_observer().observe("serve.request_ms",
                               (time.monotonic() - started) * 1000.0)

    def _error(self, error: Exception) -> tuple[str, str]:
        if isinstance(error, (TimeoutError, asyncio.TimeoutError)):
            # a parked wait past its deadline, or the Deadline
            # implies_batch polls
            self.counters.add("serve.timeouts")
            return (ErrorCode.TIMEOUT, f"request exceeded the "
                    f"{self.config.request_timeout}s deadline")
        if isinstance(error, ProtocolError):
            code, message = error.code, error.message
        elif isinstance(error, (ReproError, ValueError, TypeError)):
            code, message = ErrorCode.BAD_PARAMS, str(error)
        else:
            code = ErrorCode.INTERNAL
            message = f"{type(error).__name__}: {error}"
        self.counters.add("serve.errors")
        self.counters.add(f"serve.errors.{code}")
        return code, message

    # -- fault application (tests only; see repro.serve.faults) --------------

    async def _inject_pre(self, conn: _Connection, request: Request,
                          fault: FaultAction) -> bool:
        """Apply the pre-execution part of a fault; ``True`` = consumed.

        ``delay`` sleeps and lets the request proceed; ``error``
        answers with the injected retryable code *instead of*
        executing; ``drop``/``when="pre"`` closes the connection before
        the request runs (so it never changes state).  ``drop(post)``
        and ``truncate`` return ``False`` — they apply at delivery.
        """
        obs = get_observer()
        if fault.kind == "delay":
            with obs.span("serve.fault", op=request.op, kind="delay",
                          seconds=fault.seconds):
                await asyncio.sleep(fault.seconds)
            return False
        if fault.kind == "error":
            with obs.span("serve.fault", op=request.op, kind="error",
                          code=fault.code):
                pass
            conn.send(error_response(
                request.id, fault.code,
                f"injected fault ({fault.code}); retry later"))
            return True
        if fault.kind == "drop" and fault.when == "pre":
            with obs.span("serve.fault", op=request.op, kind="drop",
                          when="pre"):
                pass
            conn.transport.close()
            return True
        return False

    def _deliver(self, conn: _Connection, request: Request,
                 result: dict[str, Any],
                 fault: FaultAction | None) -> None:
        """Send a success response, applying delivery-side faults."""
        message = ok_response(request.id, result)
        if fault is not None and fault.kind == "truncate":
            # a torn line the peer must treat as a lost connection
            with get_observer().span("serve.fault", op=request.op,
                                     kind="truncate"):
                data = encode(message)
                conn.transport.write(data[:max(1, len(data) // 2)])
                conn.transport.close()
            return
        conn.send(message)
        if fault is not None and fault.kind == "drop" and fault.when == "post":
            with get_observer().span("serve.fault", op=request.op,
                                     kind="drop", when="post"):
                pass
            conn.transport.close()

    # -- request execution ---------------------------------------------------

    def _dispatch(self, request: Request) -> Any:
        """Hand the registry's typed command to the node's role: its
        result, a coroutine of it if the request waits, or a function
        that takes a reply callback if the role holds it."""
        self.counters.add("serve.requests")
        self.counters.add(f"serve.requests.{request.op}")
        try:
            command = commands.from_wire(request.op, request.params)
        except KeyError:                                    # pragma: no cover
            raise ProtocolError(ErrorCode.UNKNOWN_OP,        # guarded by
                                f"unhandled op {request.op!r}")  # decode_request
        return self.role.dispatch(request, command)

    def execute(self, command: commands.Command) -> commands.Outcome:
        """Run a command on this node, for its role: a server-scope one
        through its handler, a session-scope one on its session."""
        spec = command.spec
        if spec.scope == "server":
            return commands.Outcome(self._admin_handlers[spec.name](command),
                                    mutated=not spec.read_only)
        managed = self.sessions.get(command.session)
        session = managed.session
        if spec.cost == "cold" and self._shedding_cold():
            # Graceful load shedding: near capacity the server keeps
            # answering requests whose closures are all cached and
            # sheds any that needs a kernel run — the retryable
            # rejection is far cheaper than a closure we cannot afford.
            # Cold work not expressible as LHS closures (cover, keys,
            # …) declares no masks and is shed outright.  The check
            # and the run share one parse: the bound command's masks.
            command = command.bind(session)
            masks = command.lhs_masks(session)
            if not masks or not all(map(session.is_cached, masks)):
                self.counters.add("serve.shed_cold")
                raise ProtocolError(
                    ErrorCode.OVERLOADED,
                    f"shedding cold closure work near capacity "
                    f"(load={self._inflight + self._backlog}); retry later")
        outcome = commands.execute(command, session,
                                   timeout=self.config.request_timeout)
        if outcome.mutated:
            managed.generation += 1
        return outcome

    def _bind_admin_handlers(self) -> dict[str, Any]:
        """Server-scope handlers, from the registry by name: ``_op_<name>``
        (dots as underscores) on the server, else on its role.  A
        server-scope command without a handler fails here, at
        construction — as the registry's import-time check does for
        session-scope commands."""
        handlers = {}
        for name, cls in commands.REGISTRY.items():
            if cls.spec.wire and cls.spec.scope == "server":
                method = f"_op_{name.replace('.', '_')}"
                handlers[name] = (getattr(self, method, None)
                                  or getattr(self.role, method))
        return handlers

    def _vitals(self, load: bool = True) -> dict[str, Any]:
        """What ``ping`` (without ``load``), ``health``, ``metrics`` share."""
        vitals = {"uptime_s": round(time.monotonic() - self._started_at, 3),
                  "sessions": len(self.sessions)}
        if load:
            vitals.update(inflight=self._inflight, draining=self._draining)
        return vitals

    def _op_ping(self, command: commands.Ping) -> dict[str, Any]:
        return {"pong": True, "version": PROTOCOL_VERSION,
                **self._vitals(load=False)}

    def _op_open(self, command: commands.Open) -> dict[str, Any]:
        managed = self.sessions.open(
            command.name, command.schema, list(command.dependencies),
            engine=command.engine, replace=command.replace)
        return {"name": command.name, "sigma": len(managed.session),
                "engine": managed.session.engine.name}

    def _op_close(self, command: commands.Close) -> dict[str, Any]:
        managed = self.sessions.close(command.session)
        return {"closed": command.session, "sigma": len(managed.session)}

    # -- health / shedding ---------------------------------------------------

    def _shedding_cold(self) -> bool:
        """Whether the cold-closure shedding threshold is crossed."""
        threshold = self.config.shed_cold_at
        if threshold is None:
            return False
        return (self._inflight + self._backlog
                >= max(1, int(threshold * self.config.max_inflight)))

    def _op_health(self, command: Any = None) -> dict[str, Any]:
        """The ``health`` payload (answered in :meth:`_admit`)."""
        shedding = self._shedding_cold()
        status = ("draining" if self._draining
                  else "shedding" if shedding else "ok")
        health: dict[str, Any] = {"status": status,
                                  "version": PROTOCOL_VERSION,
                                  **self._vitals(), "shedding": shedding}
        if self.faults is not None:
            health["faults"] = self.faults.stats()
        health.update(self.role.health())
        return health

    # -- metrics -------------------------------------------------------------

    def _op_metrics(self, command: commands.Metrics) -> dict[str, Any]:
        server = {**self._vitals(), "counters": dict(self.counters),
                  **self.role.metrics()}
        now = time.monotonic()
        names = ((command.session,) if command.session is not None
                 else self.sessions.names())
        sessions: dict[str, Any] = {}
        for name in names:
            managed = self.sessions.peek(name)
            info = managed.session.cache_info()
            sessions[name] = {
                "sigma": len(managed.session),
                "engine": info.engine,
                "generation": managed.generation,
                "computed": info.computed,
                "hits": info.hits,
                "invalidations": info.invalidations,
                "retained": info.retained,
                "codec": {op: list(row) for op, row in info.codec.items()},
                "idle_s": round(now - managed.last_used, 3),
            }
        return {"server": server, "sessions": sessions}


async def _within(seconds: float | None, waiting: Any) -> Any:
    """Await ``waiting`` within ``seconds`` (``None``: no deadline) in
    the calling task; raises ``asyncio.TimeoutError`` past it.

    Before Python 3.12, ``asyncio.wait_for`` runs a coroutine as a task
    of its own: one more task and event-loop turn per parked request.
    """
    if sys.version_info < (3, 11):  # pragma: no cover - no asyncio.timeout
        return await asyncio.wait_for(waiting, seconds)
    async with asyncio.timeout(seconds):
        return await waiting


def _recover_id(line: bytes) -> int | str | None:
    """Best-effort id extraction from a rejected request line."""
    import json

    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(data, dict):
        request_id = data.get("id")
        if isinstance(request_id, (int, str)) and not isinstance(request_id,
                                                                 bool):
            return request_id
    return None
