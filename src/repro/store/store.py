""":class:`SessionStore` — the orchestrator the server owns.

One instance per data directory.  ``start`` recovers into the server's
session manager (repairing a torn tail and sweeping compaction
orphans), then the server calls :meth:`append` for every mutation it
acknowledges and :meth:`compact` once :meth:`should_compact` says so;
:meth:`snapshot` and :meth:`compact` are also driven directly by
``repro store compact`` and by tests.

Compaction = snapshot + roll.  A snapshot covering every appended
record is written, a fresh empty segment is created, the manifest
atomically adopts ``(snapshot, [fresh segment])``, and only then are
the replayed segments and the previous snapshot deleted.  A crash
between any two steps leaves a consistent manifest view; startup's
orphan sweep collects the debris.

The WAL tail also lives in memory, on a primary.  Every record
:meth:`SessionStore.append` logs enters the tail once its append is
flushed, the point at which the mutation may be acknowledged; recovery
seeds the tail from the segments it replays.  A follower logs through
:meth:`SessionStore.append_record` and serves no tail, so its records
stay out of it (a tail recovery seeded goes at its first compaction).
:meth:`SessionStore.records_since` answers from the tail alone and
never re-reads a segment file.  Compaction empties the tail except for
a *retained window* the caller asks for (``retain_after``: the
position of the slowest follower), capped at ``compact_records``
records and ``compact_bytes`` bytes (as encoded in the WAL), so a
follower a few records behind a compaction is still shipped records
instead of a snapshot reset.  The tail therefore holds at most the live
segment's records (bounded by the compaction thresholds) plus a window
within the same two bounds.
"""

from __future__ import annotations

import os
from typing import Any, Mapping

from ..obs import Tally, get_observer
from .manifest import (
    Manifest,
    save_manifest,
    segment_index,
    segment_name,
)
from .recovery import RecoveryReport, recover
from .snapshot import remove_stale, write_snapshot
from .wal import (
    FSYNC_POLICIES,
    StoreError,
    WalRecord,
    WalWriter,
    apply_crash,
    crash_action,
    encode_record,
)

__all__ = ["SessionStore"]


class SessionStore:
    """Durable per-session state for one server (one data directory)."""

    def __init__(self, data_dir: str, *, fsync: str = "interval",
                 fsync_interval_s: float = 0.05,
                 compact_records: int = 4096,
                 compact_bytes: int = 1 << 22,
                 counters: Tally | None = None,
                 faults: Any | None = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of "
                             f"{FSYNC_POLICIES}, got {fsync!r}")
        if compact_records < 1 or compact_bytes < 1:
            raise ValueError("compaction thresholds must be >= 1")
        self.data_dir = data_dir
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        self.compact_records = compact_records
        self.compact_bytes = compact_bytes
        self.counters = Tally() if counters is None else counters
        self.faults = faults
        self._manifest: Manifest | None = None
        self._writer: WalWriter | None = None
        self._next_seq = 1
        #: Records with consecutive seqs ending at ``last_seq``: the
        #: live segment plus the retained window (module doc).
        self._tail: list[WalRecord] = []
        #: Each tail record's encoded size in bytes, same indexes.
        self._tail_sizes: list[int] = []
        self._report: RecoveryReport | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, manager: Any) -> RecoveryReport:
        """Recover ``manager`` from disk and open the WAL for appends."""
        if self._writer is not None:
            raise RuntimeError("store is already started")
        os.makedirs(self.data_dir, exist_ok=True)
        with get_observer().span("store.recover",
                                 data_dir=self.data_dir) as span:
            report = recover(self.data_dir, manager)
            span.set(sessions=len(report.sessions),
                     replayed=report.replayed, torn=report.torn)
        if report.manifest is None:
            # fresh directory: one empty segment, no snapshot
            first = segment_name(1)
            open(os.path.join(self.data_dir, first), "ab").close()
            self._manifest = Manifest(None, (first,))
            save_manifest(self.data_dir, self._manifest)
            report.manifest = self._manifest
        else:
            self._manifest = report.manifest
            if report.torn:
                # repair: drop the torn tail so new appends start at a
                # clean record boundary
                last = os.path.join(self.data_dir,
                                    self._manifest.segments[-1])
                with open(last, "ab") as handle:
                    handle.truncate(report.last_segment_valid_bytes)
                self.counters.add("store.torn_records", report.torn)
            keep = (frozenset(self._manifest.segments)
                    | frozenset({self._manifest.snapshot} - {None}))
            orphans = remove_stale(self.data_dir, keep)
            if orphans:
                self.counters.add("store.orphans_removed", orphans)
        self._next_seq = report.next_seq
        self._tail = _consecutive_tail(report.records, self.last_seq)
        self._tail_sizes = [len(encode_record(r.seq, r.op, r.params))
                            for r in self._tail]
        # the tail owns the records now; the report kept for stats()
        # must not pin them past the next compaction
        report.records = []
        last = self._manifest.segments[-1]
        self._writer = WalWriter(
            os.path.join(self.data_dir, last), fsync=self.fsync,
            fsync_interval_s=self.fsync_interval_s,
            start_records=report.last_segment_records,
            start_bytes=report.last_segment_valid_bytes,
            counters=self.counters, faults=self.faults)
        self.counters.add("store.recoveries")
        self.counters.add("store.replayed", report.replayed)
        self._report = report
        return report

    def close(self) -> None:
        """Flush and close the WAL (fsync unless policy is ``off``)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- the hot path ------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest appended record."""
        return self._next_seq - 1

    def append(self, op: str, params: Mapping[str, Any]) -> int:
        """Log one acknowledged mutation; returns its sequence number."""
        if self._writer is None:
            raise RuntimeError("store is not started")
        seq = self._next_seq
        self._tail_sizes.append(self._writer.append(seq, op, params))
        self._tail.append(WalRecord(seq, op, params))
        self._next_seq = seq + 1
        return seq

    def append_record(self, seq: int, op: str,
                      params: Mapping[str, Any]) -> int:
        """Log one *already sequenced* record (a follower applying its
        primary's stream keeps the primary's numbering).  The sequence
        must be exactly the next one — a gap would acknowledge records
        this store never saw.  The record does not enter the in-memory
        tail: only a primary serves :meth:`records_since`."""
        if self._writer is None:
            raise RuntimeError("store is not started")
        if seq != self._next_seq:
            raise StoreError(f"replicated record seq={seq} does not follow "
                             f"local last_seq={self.last_seq}")
        self._writer.append(seq, op, params)
        self._next_seq = seq + 1
        return seq

    # -- replication tailing -----------------------------------------------

    def records_since(self, from_seq: int,
                      limit: int | None = None) -> list[WalRecord] | None:
        """Acknowledged records with ``seq > from_seq``, oldest first.

        Answered from the in-memory tail (module doc) by index
        arithmetic, without touching a segment file.  Returns ``None``
        when the tail cannot be served contiguously — ``from_seq``
        predates the tail (compaction folded it into the snapshot and
        the retained window does not reach back to it) or lies beyond
        this store's ``last_seq`` — in which case the subscriber needs a
        snapshot reset instead of a tail.
        """
        if self._manifest is None:
            raise RuntimeError("store is not started")
        last = self.last_seq
        if from_seq > last:
            return None
        tail = self._tail
        # tail[i].seq == last - len(tail) + 1 + i
        start = from_seq + len(tail) - last
        if start < 0:
            return None
        stop = len(tail) if limit is None else min(len(tail), start + limit)
        return tail[start:stop]

    def reset_to(self, sessions: Mapping[str, Mapping[str, Any]],
                 last_seq: int) -> dict[str, Any]:
        """Adopt a bootstrap snapshot at the primary's ``last_seq``.

        A cold (or lagging-past-history) follower lands here: its local
        log is superseded wholesale by the shipped session snapshot, so
        the store re-bases — snapshot + fresh segment + manifest adopt,
        exactly a compaction, just at an externally supplied sequence.
        """
        if last_seq < 0:
            raise StoreError(f"cannot reset to negative seq {last_seq}")
        self._next_seq = last_seq + 1
        return self.compact(sessions)

    def should_compact(self) -> bool:
        """Whether the live segment crossed a compaction threshold."""
        writer = self._writer
        return (writer is not None
                and (writer.records >= self.compact_records
                     or writer.bytes >= self.compact_bytes))

    def maybe_compact(self, sessions: Mapping[str, Mapping[str, Any]]) -> bool:
        """Compact when a threshold is crossed; returns whether it ran."""
        if not self.should_compact():
            return False
        self.compact(sessions)
        return True

    # -- snapshot + compaction ---------------------------------------------

    def snapshot(self, sessions: Mapping[str, Mapping[str, Any]]) -> str:
        """Write a snapshot of ``sessions`` covering every appended
        record and make it the manifest's live one; segments are kept
        (recovery skips the covered records).  Returns the file name."""
        if self._writer is None or self._manifest is None:
            raise RuntimeError("store is not started")
        self._writer.sync()
        previous = self._manifest.snapshot
        name = write_snapshot(self.data_dir, sessions, self.last_seq,
                              counters=self.counters, faults=self.faults)
        self._manifest = Manifest(name, self._manifest.segments)
        save_manifest(self.data_dir, self._manifest)
        if previous is not None and previous != name:
            self._unlink(previous)
        return name

    def compact(self, sessions: Mapping[str, Mapping[str, Any]], *,
                retain_after: int | None = None) -> dict[str, Any]:
        """Snapshot, roll a fresh segment, drop the replayed ones.

        The in-memory tail keeps the newest records with ``seq >
        retain_after``, at most ``compact_records`` of them and at most
        ``compact_bytes`` as encoded; without ``retain_after`` it is
        emptied.

        The injected ``store.compact`` crash points model a death
        before anything happens (``pre``), after the snapshot is
        published but before the manifest adopts it (``mid``) and after
        the manifest update but before the old files are deleted
        (``post``) — recovery is correct at every one of them.
        """
        if self._writer is None or self._manifest is None:
            raise RuntimeError("store is not started")
        old = self._manifest
        action = crash_action(self.faults, "store.compact")
        with get_observer().span("store.compact",
                                 records=self._writer.records,
                                 bytes=self._writer.bytes) as span:
            removed = self._compact(sessions, old, action)
            span.set(segments_removed=removed)
        keep = 0
        if retain_after is not None:
            sizes = self._tail_sizes
            limit = min(self.last_seq - retain_after, self.compact_records,
                        len(sizes))
            budget = self.compact_bytes
            while keep < limit and sizes[-1 - keep] <= budget:
                budget -= sizes[-1 - keep]
                keep += 1
        start = len(self._tail) - keep
        self._tail = self._tail[start:]
        self._tail_sizes = self._tail_sizes[start:]
        self.counters.add("store.compactions")
        return {"snapshot": self._manifest.snapshot,
                "last_seq": self.last_seq, "segments_removed": removed}

    def _compact(self, sessions: Mapping[str, Mapping[str, Any]],
                 old: Manifest, action: Any | None) -> int:
        if action is not None and action.when == "pre":
            apply_crash(action)
        self._writer.sync()
        snapshot = write_snapshot(self.data_dir, sessions, self.last_seq,
                                  counters=self.counters, faults=self.faults)
        fresh = segment_name(segment_index(old.segments[-1]) + 1)
        open(os.path.join(self.data_dir, fresh), "ab").close()
        if action is not None and action.when == "mid":
            # snapshot renamed, manifest not yet updated: on recovery
            # the old manifest view still replays everything
            apply_crash(action)
        self._manifest = Manifest(snapshot, (fresh,))
        save_manifest(self.data_dir, self._manifest)
        if action is not None and action.when == "post":
            # manifest updated, old files linger as orphans
            apply_crash(action)
        removed = 0
        for name in old.segments:
            self._unlink(name)
            removed += 1
        if old.snapshot is not None and old.snapshot != snapshot:
            self._unlink(old.snapshot)
        self._writer.close()
        self._writer = WalWriter(
            os.path.join(self.data_dir, fresh), fsync=self.fsync,
            fsync_interval_s=self.fsync_interval_s,
            counters=self.counters, faults=self.faults)
        return removed

    def _unlink(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.data_dir, name))
        except OSError:  # pragma: no cover - already gone
            pass

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``health``/``metrics`` payload for this store."""
        stats: dict[str, Any] = {
            "data_dir": self.data_dir,
            "fsync": self.fsync,
            "last_seq": self.last_seq,
            "compactions": self.counters["store.compactions"],
            "tail_records": len(self._tail),
        }
        if self._writer is not None:
            stats["segment"] = os.path.basename(self._writer.path)
            stats["segment_records"] = self._writer.records
            stats["segment_bytes"] = self._writer.bytes
        if self._report is not None:
            stats["recovered_sessions"] = len(self._report.restored)
            stats["replayed_records"] = self._report.replayed
            stats["torn_records"] = self._report.torn
        return stats


def _consecutive_tail(records: list[WalRecord],
                      last_seq: int) -> list[WalRecord]:
    """The longest suffix of ``records`` whose seqs run consecutively up
    to ``last_seq`` (the invariant :meth:`SessionStore.records_since`
    indexes by)."""
    start = len(records)
    expected = last_seq
    while start and records[start - 1].seq == expected:
        start -= 1
        expected -= 1
    return records[start:]
