"""The follower side: tail the primary's WAL and re-execute it.

A :class:`Replicator` runs inside a follower server's event loop.  It
long-polls ``replicate.subscribe`` on the primary and handles each
answer inside the read callback of its client connection: it appends
the shipped records to the follower's *own* store (same bytes, same
sequence numbers — a promoted follower recovers exactly like a
primary), applies them through :func:`repro.store.recovery.apply_record`
— the identical replay path crash recovery uses — resolves the fence
waiters and writes the next subscribe, whose ``from_seq`` acknowledges
the new position.  A fenced read handled later in the same event-loop
turn finds the records applied.

When the primary answers with a ``reset`` (the follower's position
predates the retained history, or the follower diverged), the
replicator rebuilds wholesale from the shipped session snapshot and
re-bases its store at the primary's ``last_seq``.

Staleness is observable, not hidden: ``applied_seq`` is published to
the server (read fences compare it against a client's ``min_seq``) and
:meth:`Replicator.wait_for_seq` lets a fenced read block until the tail
catches up or its budget expires.  :class:`FollowerRole`, a follower
server's role, runs the replicator, fences reads and refuses writes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from ..obs import Tally, get_observer
from ..serve.client import AsyncClient, ServerError
from ..serve.protocol import ErrorCode, ProtocolError
from ..store.recovery import apply_record
from ..store.wal import StoreError, WalRecord
from .primary import decode_batch
from .role import Role
from .router import parse_address

__all__ = ["FollowerRole", "Replicator"]


class Replicator:
    """Streams one primary's WAL into a follower's manager + store."""

    def __init__(self, manager: Any, store: Any | None,
                 host: str, port: int, *,
                 follower_id: str | None = None,
                 poll_wait: float = 5.0,
                 batch: int = 256,
                 retry_delay: float = 0.25,
                 max_retry_delay: float = 2.0,
                 counters: Tally | None = None) -> None:
        self.manager = manager
        self.store = store
        self.host = host
        self.port = port
        self.follower_id = follower_id or f"replica-{id(self) & 0xffff:04x}"
        self.poll_wait = poll_wait
        self.batch = batch
        self.retry_delay = retry_delay
        self.max_retry_delay = max_retry_delay
        self.counters = Tally() if counters is None else counters
        #: Highest sequence applied locally (starts at the store's
        #: recovered position, so a restarted follower resumes its tail).
        self.applied_seq = store.last_seq if store is not None else 0
        self.state = "connecting"  # streaming, stopped or broken
        self.error: str | None = None
        self.batches = 0
        self._task: asyncio.Task | None = None
        self._stopping = False
        #: ``(seq, future)`` fence waiters resolved as the tail advances.
        self._waiters: list[tuple[int, asyncio.Future]] = []

    # -- lifecycle -----------------------------------------------------------

    @property
    def resets(self) -> int:
        """Snapshot bootstraps applied (the ``replicate.resets`` tally)."""
        return self.counters["replicate.resets"]

    @property
    def primary_name(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Spawn the streaming task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("replicator is already started")
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"replicate<{self.primary_name}")

    async def stop(self) -> None:
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        if self.state not in ("broken",):
            self.state = "stopped"
        self._resolve_waiters()

    def status(self) -> dict[str, Any]:
        """The ``replicate.status`` / ``health`` payload for this node."""
        return {"primary": self.primary_name,
                "follower_id": self.follower_id,
                "state": self.state,
                "applied_seq": self.applied_seq,
                "resets": self.resets,
                "batches": self.batches,
                **({"error": self.error} if self.error else {})}

    # -- read fences ---------------------------------------------------------

    async def wait_for_seq(self, seq: int, timeout: float) -> bool:
        """Block until ``applied_seq >= seq`` (True) or timeout (False)."""
        if self.applied_seq >= seq:
            return True
        if timeout <= 0 or self.state in ("stopped", "broken"):
            return False
        loop = asyncio.get_running_loop()
        waiter = (seq, loop.create_future())
        timer = loop.call_later(timeout, self._expire, waiter)
        self._waiters.append(waiter)
        try:
            return await waiter[1]
        finally:
            timer.cancel()

    def _expire(self, waiter: tuple[int, asyncio.Future]) -> None:
        if not waiter[1].done():
            waiter[1].set_result(False)
            self._waiters.remove(waiter)

    def _resolve_waiters(self) -> None:
        pending = []
        for seq, future in self._waiters:
            if future.done():
                continue
            if self.applied_seq >= seq or self._stopping:
                future.set_result(self.applied_seq >= seq)
            else:
                pending.append((seq, future))
        self._waiters = pending

    # -- the streaming loop --------------------------------------------------

    async def _run(self) -> None:
        delay = self.retry_delay
        while not self._stopping:
            client = None
            try:
                client = await AsyncClient.connect(self.host, self.port)
                delay = self.retry_delay
                await self._stream(client)
                continue  # stopping
            except (ConnectionError, TimeoutError, OSError):
                pass
            except ServerError as error:
                if not error.retryable:
                    # a typed, non-retryable answer (bad_params: the
                    # target has no WAL; not_primary: it is a follower;
                    # shutting_down; …) — do not spin on it
                    return self._broken(f"{error.code}: {error}")
            except (StoreError, ValueError) as error:
                # shipped records that do not decode or re-execute mean
                # divergence; serving stale reads silently would be worse
                return self._broken(str(error))
            finally:
                if client is not None:
                    await client.close()
            self.counters.add("replicate.reconnects")
            self.state = "connecting"
            await asyncio.sleep(delay)
            delay = min(delay * 2, self.max_retry_delay)

    def _broken(self, error: str) -> None:
        self.state = "broken"
        self.error = error
        self.counters.add("replicate.broken")

    async def _stream(self, client: AsyncClient) -> None:
        """Subscribe, then let :meth:`_on_batch` keep the stream going
        until it fails with the error that ends it."""
        ended = asyncio.get_running_loop().create_future()
        self._subscribe(client, ended)
        await ended

    def _subscribe(self, client: AsyncClient, ended: asyncio.Future) -> None:
        client.submit(lambda result: self._on_batch(client, ended, result),
                      "replicate.subscribe", from_seq=self.applied_seq,
                      max_records=self.batch, wait=self.poll_wait,
                      follower=self.follower_id)

    def _on_batch(self, client: AsyncClient, ended: asyncio.Future,
                  result: Any) -> None:
        """Apply one answer and ask for the next, inside the read
        callback that received it."""
        try:
            if isinstance(result, Exception):
                raise result
            self.state = "streaming"
            if result.get("reset") is not None:
                self._apply_reset(result["reset"])
            elif result.get("records"):
                self._apply_records(result["records"])
            if not self._stopping:
                self._subscribe(client, ended)
        except Exception as error:  # noqa: BLE001 — _run sorts it
            if not ended.done():
                ended.set_exception(error)

    def _apply_records(self, payload: Any) -> None:
        records = decode_batch(payload)
        with get_observer().span("replicate.apply",
                                 from_seq=self.applied_seq) as span:
            applied = self._apply(records)
            span.set(records=applied, applied_seq=self.applied_seq)
        self.batches += 1
        self.counters.add("replicate.applied", applied)
        if self.store is not None and self.store.should_compact():
            self.store.compact(self.manager.snapshot_state())

    def _apply(self, records: list[WalRecord]) -> int:
        applied = 0
        for record in records:
            if record.seq <= self.applied_seq:
                continue  # duplicate ship (reconnect overlap) — idempotent
            if record.seq != self.applied_seq + 1:
                raise StoreError(
                    f"{self.primary_name}: replication gap — got "
                    f"seq={record.seq} after {self.applied_seq}")
            if self.store is not None:
                self.store.append_record(record.seq, record.op, record.params)
            apply_record(self.manager, record, origin=self.primary_name)
            self.applied_seq = record.seq
            applied += 1
        self._resolve_waiters()
        return applied

    def _apply_reset(self, reset: Any) -> None:
        if (not isinstance(reset, dict)
                or not isinstance(reset.get("last_seq"), int)
                or isinstance(reset.get("last_seq"), bool)
                or not isinstance(reset.get("sessions"), dict)):
            raise ValueError(f"malformed replication reset: {reset!r}")
        sessions: Mapping[str, Any] = reset["sessions"]
        with get_observer().span("replicate.reset",
                                 last_seq=reset["last_seq"],
                                 sessions=len(sessions)):
            for name in list(self.manager.names()):
                self.manager.close(name)
            for name in sorted(sessions):
                state = sessions[name]
                self.manager.restore(
                    name, state["schema"], state["dependencies"],
                    engine=state["engine"], epoch=state["epoch"],
                    generation=state["generation"])
            if self.store is not None:
                self.store.reset_to(self.manager.snapshot_state(),
                                    reset["last_seq"])
            self.applied_seq = reset["last_seq"]
        self.counters.add("replicate.resets")
        self._resolve_waiters()


class FollowerRole(Role):
    name = "replica"
    # an idle-evicted session would make later records unreplayable
    # (LRU capacity still applies: size max_sessions to the primary's)
    sweeps_idle = False

    def start(self, address: tuple[str, int]) -> None:
        server, config = self.server, self.server.config
        host, port = parse_address(config.replicate_from)
        self.replicator = Replicator(
            server.sessions, self.store, host, port,
            follower_id=config.replica_id or f"{address[0]}:{address[1]}",
            poll_wait=config.replicate_poll, batch=config.replicate_batch,
            counters=server.counters)
        self.replicator.start()

    async def stop(self) -> None:
        if self.replicator is not None:
            await self.replicator.stop()

    def _not_primary(self, message: str) -> ProtocolError:
        return ProtocolError(ErrorCode.NOT_PRIMARY, f"{message} the primary "
                             f"at {self.replicator.primary_name}")

    def dispatch(self, request: Any, command: Any) -> Any:
        spec = command.spec
        if not spec.read_only:
            # one primary serializes the WAL
            raise self._not_primary(
                "this node is a read-only replica; send mutations to")
        if spec.scope == "session" and "min_seq" in request.params:
            min_seq = request.params["min_seq"]
            if type(min_seq) is not int or min_seq < 0:
                raise ProtocolError(ErrorCode.BAD_PARAMS, "'min_seq' must "
                                    "be a non-negative integer")
            if self.replicator.applied_seq < min_seq:
                # Bounded staleness: the read waits for the tail.
                return self._fenced(command, min_seq)
            with self._fence_span(min_seq) as span:
                span.set(ok=True)
        return self.server.execute(command).result

    def _fence_span(self, min_seq: int) -> Any:
        return get_observer().span("replicate.fence", min_seq=min_seq,
                                   applied_seq=self.replicator.applied_seq)

    async def _fenced(self, command: Any, min_seq: int) -> dict[str, Any]:
        """Wait for ``applied_seq >= min_seq``, then run the read."""
        replicator, wait = self.replicator, self.server.config.fence_wait
        with self._fence_span(min_seq) as span:
            ok = await replicator.wait_for_seq(min_seq, wait)
            span.set(ok=ok)
        if not ok:
            self.server.counters.add("serve.fence_timeouts")
            raise ProtocolError(
                ErrorCode.REPLICA_BEHIND,
                f"replica at seq {replicator.applied_seq} did not reach "
                f"the min_seq={min_seq} fence within {wait}s; retry "
                f"another node or the primary at {replicator.primary_name}")
        return self.server.execute(command).result

    def status(self) -> dict[str, Any]:
        return {**super().status(), "replica": self.replicator.status()}

    def health(self) -> dict[str, Any]:
        return {**self.metrics(), "replication": self.status()}

    def _op_replicate_subscribe(self, command: Any) -> Any:
        raise self._not_primary(
            "this node is a read-only replica and ships no WAL; "
            "replicate from")

    _op_replicate_ack = _op_replicate_subscribe
