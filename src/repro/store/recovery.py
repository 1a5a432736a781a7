"""Crash recovery: rebuild live sessions from snapshot + WAL tail.

:func:`recover` is the boot path of ``repro serve --data-dir``: load
the manifest, rebuild every snapshotted session (restoring its
``(epoch, generation)`` so a :class:`~repro.serve.resilience.RetryingClient`
sees the same lineage across the restart), then replay WAL records
with ``seq > snapshot.last_seq`` through the command registry —
``add``/``retract`` run via :func:`repro.core.commands.execute`
exactly as they did live (generation bumps included), ``open``/``close``
apply against the session manager.

The manager is duck-typed (``restore``/``open``/``close``/``peek``) so
this module never imports :mod:`repro.serve`; the server passes its
:class:`~repro.serve.server.SessionManager`.

Failure policy: a torn trailing record in the *final* segment is
tolerated — logged, counted (``store.torn_records``) and truncated by
the :class:`~repro.store.store.SessionStore` before new appends — but
any other malformation (checksum failure mid-stream, a non-monotonic
sequence, a record that will not re-execute, a named-but-missing
snapshot) raises :class:`~repro.store.wal.WalCorruptionError` and
refuses startup: better down than silently divergent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..core import commands
from .manifest import Manifest, load_manifest
from .snapshot import load_snapshot
from .wal import StoreError, WalCorruptionError, WalRecord, read_segment

__all__ = ["RecoveryReport", "recover", "apply_record", "inspect_store"]


@dataclass
class RecoveryReport:
    """What one recovery pass found and rebuilt."""

    data_dir: str
    #: ``None`` for a fresh (empty) directory.
    manifest: Manifest | None = None
    #: Session names rebuilt from the snapshot.
    restored: tuple[str, ...] = ()
    #: WAL records replayed (after the ``last_seq`` filter).
    replayed: int = 0
    #: Records skipped because the snapshot already covers them.
    skipped: int = 0
    #: Torn trailing records tolerated (0 or 1).
    torn: int = 0
    #: Bytes of the final segment that decode cleanly (truncate target).
    last_segment_valid_bytes: int = 0
    #: Records / bytes already in the final segment (writer seed).
    last_segment_records: int = 0
    #: The next sequence number to mint.
    next_seq: int = 1
    #: Highest restored epoch (the server reserves past it).
    max_epoch: int = 0
    #: Sessions open after recovery.
    sessions: tuple[str, ...] = ()
    #: Every record read from the manifest's segments, in order; the
    #: store seeds its in-memory tail from it and then empties it.
    records: list[WalRecord] = field(default_factory=list)


def recover(data_dir: str, manager: Any) -> RecoveryReport:
    """Rebuild ``manager`` from ``data_dir``; returns the report.

    ``manager`` must be empty (fresh) — recovery is a boot-time
    operation, not a merge.
    """
    report = RecoveryReport(data_dir)
    report.manifest = load_manifest(data_dir)
    if report.manifest is None:
        return report

    last_seq = 0
    if report.manifest.snapshot is not None:
        snapshot = load_snapshot(os.path.join(data_dir,
                                              report.manifest.snapshot))
        last_seq = snapshot["last_seq"]
        restored = []
        for name in sorted(snapshot["sessions"]):
            state = snapshot["sessions"][name]
            try:
                managed = manager.restore(
                    name, state["schema"], state["dependencies"],
                    engine=state["engine"], epoch=state["epoch"],
                    generation=state["generation"])
            except Exception as error:
                raise WalCorruptionError(
                    f"{data_dir}: snapshot session {name!r} does not "
                    f"rebuild ({error})") from error
            restored.append(name)
            report.max_epoch = max(report.max_epoch, managed.epoch)
        report.restored = tuple(restored)

    highest = last_seq
    final = report.manifest.segments[-1]
    for segment in report.manifest.segments:
        path = os.path.join(data_dir, segment)
        if not os.path.exists(path):
            raise WalCorruptionError(
                f"{data_dir}: manifest names missing segment {segment!r}")
        records, valid_bytes, tail = read_segment(path)
        if tail and segment != final:
            raise WalCorruptionError(
                f"{data_dir}: segment {segment!r} has a torn tail but is "
                f"not the final segment")
        if segment == final:
            report.last_segment_valid_bytes = valid_bytes
            report.last_segment_records = len(records)
            report.torn = 1 if tail else 0
        report.records.extend(records)
        for record in records:
            if record.seq <= highest:
                if record.seq <= last_seq:
                    report.skipped += 1
                    continue
                raise WalCorruptionError(
                    f"{data_dir}: {segment}: sequence {record.seq} is not "
                    f"monotonic (already at {highest})")
            apply_record(manager, record, origin=data_dir)
            highest = record.seq
            report.replayed += 1

    report.next_seq = highest + 1
    report.sessions = tuple(manager.names())
    return report


def apply_record(manager: Any, record: WalRecord, *,
                 origin: str = "wal") -> None:
    """Re-apply one acknowledged mutation; failure means divergence.

    The single replay semantics shared by crash recovery and streaming
    replication (:mod:`repro.replicate`): ``open``/``close`` run against
    the session manager, everything else re-executes through the
    command registry with the same generation bump the live path took.
    ``origin`` only labels the error (a data dir, or the primary's
    address on a follower).
    """
    try:
        command = commands.from_wire(record.op, record.params)
    except (KeyError, ValueError) as error:
        raise WalCorruptionError(
            f"{origin}: WAL record seq={record.seq} is not a wire "
            f"command ({error})") from error
    try:
        if record.op == "open":
            manager.open(command.name, command.schema,
                         list(command.dependencies), engine=command.engine,
                         replace=command.replace)
        elif record.op == "close":
            manager.close(command.session)
        else:
            managed = manager.peek(command.session)
            outcome = commands.execute(command, managed.session)
            if outcome.mutated:
                managed.generation += 1
    except Exception as error:
        raise WalCorruptionError(
            f"{origin}: WAL record seq={record.seq} op={record.op!r} "
            f"does not re-execute ({error})") from error


def inspect_store(data_dir: str) -> dict[str, Any]:
    """A read-only summary of a data directory (``repro store inspect``).

    Never mutates anything: the torn tail, if any, is reported but not
    truncated.
    """
    if not os.path.isdir(data_dir):
        raise StoreError(f"not a directory: {data_dir!r}")
    manifest = load_manifest(data_dir)
    if manifest is None:
        return {"data_dir": data_dir, "initialized": False}
    info: dict[str, Any] = {
        "data_dir": data_dir,
        "initialized": True,
        "snapshot": None,
        "segments": [],
        "torn_tail_bytes": 0,
    }
    last_seq = 0
    if manifest.snapshot is not None:
        snapshot = load_snapshot(os.path.join(data_dir, manifest.snapshot))
        last_seq = snapshot["last_seq"]
        info["snapshot"] = {
            "name": manifest.snapshot,
            "last_seq": last_seq,
            "sessions": {
                name: {"sigma": len(state["dependencies"]),
                       "engine": state["engine"],
                       "epoch": state["epoch"],
                       "generation": state["generation"]}
                for name, state in sorted(snapshot["sessions"].items())},
        }
    highest = last_seq
    final = manifest.segments[-1]
    for segment in manifest.segments:
        records, valid_bytes, tail = read_segment(
            os.path.join(data_dir, segment))
        if tail and segment != final:
            raise WalCorruptionError(
                f"{data_dir}: segment {segment!r} has a torn tail but is "
                f"not the final segment")
        highest = max([highest] + [record.seq for record in records])
        info["segments"].append({"name": segment, "records": len(records),
                                 "bytes": valid_bytes})
        if segment == final:
            info["torn_tail_bytes"] = len(tail)
    info["last_seq"] = highest
    info["next_seq"] = highest + 1
    return info
