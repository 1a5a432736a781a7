"""The write-ahead log: length-prefixed, CRC-checksummed NDJSON records.

Every mutating command the server acknowledges is first appended here
as one line::

    llllllll cccccccc {"op":"add","params":{...},"seq":7}\\n

where ``llllllll`` is the payload length and ``cccccccc`` its CRC-32,
both as fixed-width lowercase hex.  The payload is the command's wire
encoding (the PR 8 registry's ``op``/``params``) plus a global,
strictly monotonic ``seq`` — recovery replays records with
``seq > snapshot.last_seq`` through :func:`repro.core.commands.execute`,
so a snapshot taken at any point makes the replay idempotent.

Torn tails vs corruption
------------------------
A crash mid-append leaves a *torn tail*: a partial record at the very
end of the final segment, never followed by more data (appends are a
single ``write`` of one line).  :func:`read_segment` tolerates exactly
that shape — the partial record is reported and truncated away before
new appends.  An undecodable record *followed by further data* can
only mean real corruption (bit rot, concurrent writers, a truncated
middle) and raises :class:`WalCorruptionError`: recovery refuses to
start rather than silently drop acknowledged mutations.

Durability levels (``fsync`` policy)
------------------------------------
``always``
    ``fsync`` after every append — survives power loss at ~one disk
    flush per mutation.
``interval``
    ``flush`` to the OS after every append (survives process death,
    including SIGKILL), ``fsync`` at most once per
    ``fsync_interval_s`` — the default; the edit-path overhead target.
``off``
    ``flush`` only; no ``fsync`` ever.  Benchmarks and tests.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

from ..exceptions import ReproError
from ..obs import Tally, get_observer

__all__ = ["FSYNC_POLICIES", "StoreError", "WalCorruptionError",
           "WalRecord", "WalWriter", "encode_record", "decode_record",
           "read_segment", "crash_action", "apply_crash"]

#: The configurable durability levels (see module docstring).
FSYNC_POLICIES = ("always", "interval", "off")

#: Exit status used by injected ``crash`` faults — ``os._exit`` with
#: the conventional SIGKILL code, skipping every buffer flush and
#: ``atexit`` hook a graceful exit would run.
CRASH_EXIT_STATUS = 137

#: ``len("llllllll cccccccc ")`` — the fixed record header width.
_HEADER = 18


class StoreError(ReproError):
    """Any failure of the durable store (I/O, format, recovery)."""


class WalCorruptionError(StoreError):
    """Undecodable data that cannot be a torn tail: refuse startup."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL entry: a wire command plus its sequence number."""

    seq: int
    op: str
    params: dict[str, Any]


#: ``json.dumps`` with keyword arguments builds a fresh ``JSONEncoder``
#: per call; the append hot path reuses one canonical encoder instead.
_encode_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                                ensure_ascii=False).encode


#: The encoder's own string escaper (``ensure_ascii=False``).
_encode_string = json.encoder.encode_basestring

#: ``(op, param names in the caller's order)`` → the record's template:
#: the names in canonical (sorted) order and a ``%``-format of the
#: payload with one ``%s`` per value and ``%d`` for the seq, or ``None``
#: when a name is not a string.  Every record of an op has the same
#: shape, so only the string values need escaping.  Emptied at
#: :data:`_TEMPLATES_MAXSIZE` entries: the wire does not reject unknown
#: params, so the shapes are not a closed set.
_TEMPLATES: dict[tuple, tuple | None] = {}
_TEMPLATES_MAXSIZE = 64


def _template(op: str, names: tuple) -> tuple | None:
    if not all(type(name) is str for name in names):
        return None
    order = tuple(sorted(names))

    def text(value: str) -> str:
        return _encode_string(value).replace("%", "%%")

    fields = ",".join(f"{text(name)}:%s" for name in order)
    return order, f'{{"op":{text(op)},"params":{{{fields}}},"seq":%d}}'


def encode_record(seq: int, op: str, params: Mapping[str, Any]) -> bytes:
    """One record as bytes (header + canonical JSON payload + newline).

    The payload is the canonical JSON of ``{"op", "params", "seq"}``
    (sorted keys, no spaces, non-ASCII kept).  When every param value is
    a string it fills the op's template; otherwise the JSON encoder
    writes it.  Both give the same bytes.
    """
    payload = None
    if type(op) is str and type(seq) is int:
        names = tuple(params)
        template = _TEMPLATES.get((op, names), False)
        if template is False:
            if len(_TEMPLATES) >= _TEMPLATES_MAXSIZE:
                _TEMPLATES.clear()
            template = _TEMPLATES[op, names] = _template(op, names)
        if template is not None:
            order, text = template
            try:
                values = [_encode_string(params[name]) for name in order]
            except TypeError:       # a value that is not a string
                pass
            else:
                payload = (text % (*values, seq)).encode("utf-8")
    if payload is None:
        payload = _encode_json({"op": op, "params": dict(params),
                                "seq": seq}).encode("utf-8")
    return (b"%08x %08x " % (len(payload), zlib.crc32(payload))
            + payload + b"\n")


def decode_record(line: bytes) -> WalRecord:
    """Decode one record line (without its newline); raises
    :class:`WalCorruptionError` on any mismatch."""
    if len(line) < _HEADER:
        raise WalCorruptionError(f"record shorter than its header "
                                 f"({len(line)} bytes)")
    try:
        length = int(line[0:8], 16)
        crc = int(line[9:17], 16)
    except ValueError as error:
        raise WalCorruptionError(f"unparsable record header "
                                 f"{line[:_HEADER]!r}") from error
    payload = line[_HEADER:]
    if len(payload) != length:
        raise WalCorruptionError(f"record length mismatch: header says "
                                 f"{length}, payload is {len(payload)} bytes")
    if zlib.crc32(payload) != crc:
        raise WalCorruptionError(f"record checksum mismatch "
                                 f"(expected {crc:08x})")
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WalCorruptionError(
            f"record payload is not valid JSON: {error}") from error
    if (not isinstance(data, dict)
            or not isinstance(data.get("seq"), int)
            or isinstance(data.get("seq"), bool)
            or not isinstance(data.get("op"), str)
            or not isinstance(data.get("params"), dict)):
        raise WalCorruptionError(f"record payload misses seq/op/params: "
                                 f"{data!r}")
    return WalRecord(data["seq"], data["op"], data["params"])


def read_segment(path: str) -> tuple[list[WalRecord], int, bytes]:
    """Read one segment; returns ``(records, valid_bytes, torn_tail)``.

    ``valid_bytes`` is the offset of the last cleanly decoded record
    boundary and ``torn_tail`` the undecodable bytes after it (empty
    for a clean segment).  A tail is only *torn* — and therefore
    tolerable — when nothing follows it; an undecodable record with
    further data after its line raises :class:`WalCorruptionError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: list[WalRecord] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline
        try:
            record = decode_record(data[offset:end])
        except WalCorruptionError as error:
            rest = data[end + 1:] if newline >= 0 else b""
            if rest.strip():
                raise WalCorruptionError(
                    f"{path}: corrupt record at byte {offset} with "
                    f"{len(rest)} bytes after it ({error})") from error
            return records, offset, data[offset:]
        if newline < 0:
            # a full record missing only its newline is still a torn
            # write (the terminator never hit the disk)
            return records, offset, data[offset:]
        records.append(record)
        offset = newline + 1
    return records, offset, b""


# --------------------------------------------------------------------------
# Injected crash faults (tests only; see repro.serve.faults)

def crash_action(faults: Any, point: str) -> Any | None:
    """Consult a fault injector for a ``crash`` decision at ``point``.

    ``faults`` is duck-typed (anything with ``decide(op)``) so the
    store never imports :mod:`repro.serve` — the server injects its own
    :class:`~repro.serve.faults.FaultInjector`.  Non-crash decisions at
    store points are ignored.
    """
    if faults is None:
        return None
    action = faults.decide(point)
    if action is not None and getattr(action, "kind", None) == "crash":
        return action
    return None


def apply_crash(action: Any) -> None:
    """Die the way SIGKILL would: no flush, no atexit, no goodbye."""
    os._exit(CRASH_EXIT_STATUS)


# --------------------------------------------------------------------------
# The writer

class WalWriter:
    """Appends records to one segment file under an fsync policy.

    ``start_records`` / ``start_bytes`` seed the segment tallies when
    the writer re-opens a segment that already has content (recovery).
    """

    def __init__(self, path: str, *, fsync: str = "interval",
                 fsync_interval_s: float = 0.05,
                 start_records: int = 0, start_bytes: int = 0,
                 counters: Tally | None = None,
                 faults: Any | None = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of "
                             f"{FSYNC_POLICIES}, got {fsync!r}")
        self.path = path
        self.policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self.records = start_records
        self.bytes = start_bytes
        self._counters = Tally() if counters is None else counters
        self._faults = faults
        self._handle = open(path, "ab")
        self._last_fsync = time.monotonic()

    def append(self, seq: int, op: str, params: Mapping[str, Any]) -> int:
        """Write one record and make it durable per policy; returns its
        size in bytes.  The record is on its way to the OS before this
        returns — the caller may acknowledge the mutation."""
        data = encode_record(seq, op, params)
        action = crash_action(self._faults, "store.append")
        obs = get_observer()
        if obs.enabled:
            with obs.span("store.append", seq=seq, op=op) as span:
                self._write(data, action)
                span.set(bytes=len(data))
        else:
            self._write(data, action)
        self.records += 1
        self.bytes += len(data)
        self._counters.add("store.appends")
        self._counters.add("store.append_bytes", len(data))
        self._maybe_fsync()
        return len(data)

    def _write(self, data: bytes, action: Any | None) -> None:
        if action is not None and action.when == "pre":
            apply_crash(action)
        if action is not None and action.when == "mid":
            # a torn write: half the record reaches the file, then death
            self._handle.write(data[:max(1, len(data) // 2)])
            self._handle.flush()
            apply_crash(action)
        self._handle.write(data)
        self._handle.flush()
        if action is not None and action.when == "post":
            # written and flushed (survives SIGKILL) but never fsynced
            # and never acknowledged — recovery may legitimately keep it
            apply_crash(action)

    def _maybe_fsync(self) -> None:
        if self.policy == "always":
            self.sync()
        elif (self.policy == "interval"
              and time.monotonic() - self._last_fsync
              >= self.fsync_interval_s):
            self.sync()

    def sync(self) -> None:
        """``fsync`` the segment now (also used at snapshot boundaries)."""
        with get_observer().span("store.fsync", policy=self.policy):
            os.fsync(self._handle.fileno())
        self._last_fsync = time.monotonic()
        self._counters.add("store.fsyncs")

    def close(self) -> None:
        """Flush (and, unless ``off``, fsync) then close the segment."""
        if self._handle.closed:
            return
        self._handle.flush()
        if self.policy != "off":
            os.fsync(self._handle.fileno())
        self._handle.close()
