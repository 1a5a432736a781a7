"""The primary: the only node that ships its WAL.

:class:`PrimaryRole` is a store-backed server's role
(:mod:`repro.replicate.role`): it logs each mutation and answers
``replicate.subscribe`` / ``replicate.ack``.  A caught-up subscribe is
held, not parked: the append that ends its wait writes the batch to
the follower before the mutation's own answer is written.  Under it
sit the follower lag table the ``replicate.status`` op and the health
payload report, and the batch encoding that turns
:class:`~repro.store.wal.WalRecord` tails into wire JSON.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Iterable

from ..obs import get_observer
from ..serve.protocol import ErrorCode, ProtocolError
from ..store.wal import WalRecord
from .role import Role

__all__ = ["FollowerTable", "PrimaryRole", "encode_batch", "decode_batch"]


def encode_batch(records: Iterable[WalRecord]) -> list[dict[str, Any]]:
    """WAL records as the ``replicate.subscribe`` wire payload."""
    return [{"seq": record.seq, "op": record.op, "params": record.params}
            for record in records]


def decode_batch(payload: Any) -> list[WalRecord]:
    """The inverse of :func:`encode_batch`, with structural validation.

    Followers apply whatever the primary shipped; a malformed batch is
    a protocol violation, not a torn tail, so it raises ``ValueError``
    (the replicator treats it as a broken stream rather than guessing).
    """
    if not isinstance(payload, list):
        raise ValueError(f"replication batch is not a list: {payload!r}")
    records = []
    for entry in payload:
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("seq"), int)
                or isinstance(entry.get("seq"), bool)
                or not isinstance(entry.get("op"), str)
                or not isinstance(entry.get("params"), dict)):
            raise ValueError(f"malformed replication record: {entry!r}")
        records.append(WalRecord(entry["seq"], entry["op"], entry["params"]))
    return records


class FollowerTable:
    """Who is subscribed and how far behind they are.

    Purely advisory: the primary never blocks on followers (replication
    is asynchronous — an acknowledged mutation is durable locally and
    ships on the next poll).  A follower's position comes from its
    subscribes' ``from_seq`` and from explicit ``replicate.ack``s.  The
    table feeds ``replicate.status``, ``health``, the compaction horizon
    and the lag numbers the scale-out benchmark records.
    """

    def __init__(self, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._rows: dict[str, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def _row(self, follower: str) -> dict[str, Any]:
        return self._rows.setdefault(
            follower, {"acked_seq": 0, "from_seq": 0,
                       "acked_at": None, "polled_at": None})

    def seen(self, follower: str | None, from_seq: int) -> None:
        """A subscribe poll arrived (anonymous followers are not tracked)."""
        if not follower:
            return
        row = self._row(follower)
        row["from_seq"] = from_seq
        row["polled_at"] = self._clock()

    def ack(self, follower: str, seq: int) -> int:
        """Record an applied position; returns the follower's high mark."""
        row = self._row(follower)
        row["acked_seq"] = max(row["acked_seq"], seq)
        row["acked_at"] = self._clock()
        return row["acked_seq"]

    def stats(self, last_seq: int) -> dict[str, dict[str, Any]]:
        """Per-follower ``{acked_seq, lag, age_s}`` for status payloads."""
        now = self._clock()
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._rows):
            row = self._rows[name]
            out[name] = {
                "acked_seq": row["acked_seq"],
                "lag": max(0, last_seq - row["acked_seq"]),
                "age_s": (None if row["acked_at"] is None
                          else round(now - row["acked_at"], 3)),
            }
        return out

    def min_acked(self, default: int | None = 0) -> int | None:
        """The slowest follower's acknowledged position: the horizon
        above which a compaction keeps records in memory."""
        if not self._rows:
            return default
        return min(row["acked_seq"] for row in self._rows.values())


class PrimaryRole(Role):
    name = "primary"

    def __init__(self, server: Any) -> None:
        super().__init__(server)
        self.followers = FollowerTable()
        #: Held long-polls: reply callback -> (command, limit, timer).
        self._polls: dict[Callable[[Any], None], tuple[Any, int, Any]] = {}
        self._stopping = False

    async def stop(self) -> None:
        # a draining follower gets a (possibly empty) batch, not an error
        self._stopping = True
        self._ship()

    def dispatch(self, request: Any, command: Any) -> Any:
        outcome = self.server.execute(command)
        if not outcome.mutated:
            return outcome.result
        # logged before the answer leaves, and only if it changed
        # state; ``seq`` is the client's read fence.  A compaction keeps
        # the slowest follower's tail in memory.
        store = self.store
        seq = store.append(request.op, request.params)
        if store.should_compact():
            store.compact(self.server.sessions.snapshot_state(),
                          retain_after=self.followers.min_acked(None))
        if self._polls:
            # shipped before the answer is written: a client that reads
            # its ack finds the record already on its way to followers
            self._ship()
        return {**outcome.result, "seq": seq}

    def status(self) -> dict[str, Any]:
        status = super().status()
        if len(self.followers):
            status["followers"] = self.followers.stats(status["last_seq"])
        return status

    def health(self) -> dict[str, Any]:
        return {**self.metrics(), "replication": self.status()}

    def _op_replicate_subscribe(self, command: Any) -> Any:
        """The next batch, answered at once if there is one (or a reset
        is due); a caught-up poll is held until an append, the end of
        its ``wait`` or shutdown.  A named follower's poll acknowledges
        ``from_seq``, as ``replicate.ack`` would."""
        config = self.server.config
        limit = command.max_records or config.replicate_batch
        if limit < 1:
            raise ProtocolError(ErrorCode.BAD_PARAMS,
                                "'max_records' must be >= 1")
        wait = min(command.wait or 0.0, config.replicate_max_wait)
        follower, from_seq = command.follower, command.from_seq
        self.followers.seen(follower, from_seq)
        last_seq = self.store.last_seq
        if follower and from_seq <= last_seq:
            self.followers.ack(follower, from_seq)
        if from_seq != last_seq or wait <= 0 or self._stopping:
            return self._batch(command, limit)

        def hold(reply: Callable[[Any], None]) -> None:
            timer = asyncio.get_running_loop().call_later(
                wait, self._expire, reply)
            self._polls[reply] = (command, limit, timer)

        return hold

    def _expire(self, reply: Callable[[Any], None]) -> None:
        command, limit, _timer = self._polls.pop(reply)
        reply(self._batch(command, limit))

    def _ship(self) -> None:
        """Answer every held poll."""
        polls, self._polls = self._polls, {}
        for reply, (command, limit, timer) in polls.items():
            timer.cancel()
            reply(self._batch(command, limit))

    def _batch(self, command: Any, limit: int) -> dict[str, Any]:
        """The ``replicate.subscribe`` answer for ``command`` now."""
        store = self.store
        with get_observer().span("replicate.ship",
                                 follower=command.follower or "?",
                                 from_seq=command.from_seq) as span:
            records = store.records_since(command.from_seq, limit)
            span.set(records=len(records or ()), last_seq=store.last_seq)
            if records is None:
                # the tail is not contiguously servable from from_seq:
                # ship a snapshot bootstrap instead
                self.server.counters.add("replicate.resets_served")
                return {"records": [], "last_seq": store.last_seq,
                        "reset": {"last_seq": store.last_seq, "sessions":
                                  self.server.sessions.snapshot_state()}}
            if records:
                self.server.counters.add("replicate.shipped", len(records))
            return {"records": encode_batch(records),
                    "last_seq": store.last_seq}

    def _op_replicate_ack(self, command: Any) -> dict[str, Any]:
        acked = self.followers.ack(command.follower, command.seq)
        self.server.counters.add("replicate.acks")
        return {"acked": acked, "last_seq": self.store.last_seq}
