"""Snapshots: the full session state at one WAL sequence number.

A snapshot file serializes every open session — schema text, Σ member
displays (the same strings the wire speaks), engine name, and the
server-side ``(epoch, generation)`` pair — together with ``last_seq``,
the sequence number of the last WAL record it covers::

    {"snapshot_version": 1, "last_seq": 42,
     "sessions": {"pub": {"schema": "...", "dependencies": [...],
                          "engine": "worklist", "epoch": 3,
                          "generation": 7}}}

Recovery rebuilds sessions from the snapshot and replays only WAL
records with ``seq > last_seq``, which makes snapshotting idempotent:
a compaction that crashes after the snapshot rename but before the
manifest update merely leaves an orphan file.

Snapshots are written atomically (write-temp + fsync + rename) and
named by the sequence they cover, so two snapshots never collide and
the newest is self-describing.
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping

from ..obs import Tally, get_observer
from .manifest import atomic_write, fsync_dir
from .wal import WalCorruptionError, apply_crash, crash_action

__all__ = ["SNAPSHOT_VERSION", "snapshot_name", "write_snapshot",
           "load_snapshot", "remove_stale"]

SNAPSHOT_VERSION = 1

_SESSION_KEYS = frozenset({"schema", "dependencies", "engine", "epoch",
                           "generation"})


def snapshot_name(last_seq: int) -> str:
    """``snapshot-<last_seq as 16-digit hex>.json``."""
    if last_seq < 0:
        raise ValueError(f"last_seq must be >= 0, got {last_seq!r}")
    return f"snapshot-{last_seq:016x}.json"


def write_snapshot(data_dir: str, sessions: Mapping[str, Mapping[str, Any]],
                   last_seq: int, *, counters: Tally | None = None,
                   faults: Any | None = None) -> str:
    """Write one snapshot atomically; returns its file name.

    The injected ``store.snapshot`` crash points model a death before
    any write (``pre``), mid-way through the temp file (``mid``) and
    after the temp file is complete but before the rename (``post``) —
    in every case the previous snapshot stays the live one.
    """
    name = snapshot_name(last_seq)
    path = os.path.join(data_dir, name)
    payload = json.dumps(
        {"snapshot_version": SNAPSHOT_VERSION, "last_seq": last_seq,
         "sessions": {session: dict(state)
                      for session, state in sessions.items()}},
        indent=2, sort_keys=True, ensure_ascii=False).encode("utf-8")
    action = crash_action(faults, "store.snapshot")
    with get_observer().span("store.snapshot", sessions=len(sessions),
                             last_seq=last_seq) as span:
        _write(path, payload, action)
        span.set(bytes=len(payload))
    counters = Tally() if counters is None else counters
    counters.add("store.snapshots")
    counters.add("store.snapshot_bytes", len(payload))
    return name


def _write(path: str, payload: bytes, action: Any | None) -> None:
    if action is not None and action.when == "pre":
        apply_crash(action)
    if action is not None and action.when == "mid":
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(payload[:max(1, len(payload) // 2)])
            handle.flush()
        apply_crash(action)
    if action is not None and action.when == "post":
        # complete temp file, death before the rename publishes it
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        apply_crash(action)
    atomic_write(path, payload)


def load_snapshot(path: str) -> dict[str, Any]:
    """Load and validate one snapshot; raises
    :class:`~repro.store.wal.WalCorruptionError` on any malformation
    (a *named* snapshot that does not load is never tolerable — the
    manifest only ever points at fully renamed files)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise WalCorruptionError(
            f"{path}: unreadable snapshot ({error})") from error
    if (not isinstance(data, dict)
            or data.get("snapshot_version") != SNAPSHOT_VERSION
            or not isinstance(data.get("last_seq"), int)
            or isinstance(data.get("last_seq"), bool)
            or data["last_seq"] < 0
            or not isinstance(data.get("sessions"), dict)):
        raise WalCorruptionError(f"{path}: malformed snapshot")
    for session, state in data["sessions"].items():
        if (not isinstance(session, str) or not isinstance(state, dict)
                or set(state) != _SESSION_KEYS
                or not isinstance(state["schema"], str)
                or not isinstance(state["dependencies"], list)
                or not all(isinstance(d, str)
                           for d in state["dependencies"])
                or not isinstance(state["engine"], str)
                or not isinstance(state["epoch"], int)
                or not isinstance(state["generation"], int)):
            raise WalCorruptionError(
                f"{path}: malformed session entry {session!r}")
    return data


def remove_stale(data_dir: str, keep: frozenset[str]) -> int:
    """Delete ``snapshot-*``/``wal-*``/``*.tmp`` files not in ``keep``.

    Orphans are the debris of crashed compactions (a renamed snapshot
    the manifest never adopted, a rolled segment, temp files); sweeping
    them on startup keeps the directory equal to the manifest's view.
    Returns the number of files removed.
    """
    removed = 0
    for name in sorted(os.listdir(data_dir)):
        if name in keep:
            continue
        if (name.endswith(".tmp") or name.startswith("snapshot-")
                or name.startswith("wal-")):
            try:
                os.unlink(os.path.join(data_dir, name))
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    if removed:
        fsync_dir(data_dir)
    return removed
