"""Primary-side replication bookkeeping.

The primary's wire surface (``replicate.subscribe`` / ``replicate.ack``)
lives in :class:`~repro.serve.server.ReasoningServer`; this module holds
the pure pieces under it — the follower lag table the ``replicate.status``
op and the health payload report, and the batch encoding that turns
:class:`~repro.store.wal.WalRecord` tails into wire JSON.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from ..store.wal import WalRecord

__all__ = ["FollowerTable", "encode_batch", "decode_batch"]


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
    ships on the next poll).  The table feeds ``replicate.status``,
    ``health`` and the lag numbers the scale-out benchmark records.
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
