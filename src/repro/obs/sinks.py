"""Pluggable destinations for spans and metric snapshots.

Three sinks cover the use cases the engine has today:

* :class:`NullSink` — discards everything; exists so an *enabled*
  observer with no interesting destination still has a valid fan-out
  list (the *disabled* path never reaches a sink at all).
* :class:`InMemorySink` — buffers span records and metric snapshots in
  lists, with small query helpers; what the test suite asserts against.
* :class:`JsonlSink` — appends one JSON object per line to a file for
  offline analysis; span records stream out as they finish, metric
  snapshots are written on ``flush``/``close``.  The JSONL schema is
  documented in docs/OBSERVABILITY.md.

A sink receives plain dicts (the :meth:`~repro.obs.spans.Span.as_dict`
shape), never live ``Span`` objects.
"""

from __future__ import annotations

import json
from typing import IO, Any

__all__ = ["Sink", "NullSink", "InMemorySink", "JsonlSink"]


class Sink:
    """Interface: override any subset; defaults all no-op."""

    def on_span(self, record: dict[str, Any]) -> None:
        """A span finished."""

    def on_metrics(self, snapshot: dict[str, Any]) -> None:
        """A metrics snapshot was flushed."""

    def flush(self) -> None:
        """Push buffered output to its destination."""

    def close(self) -> None:
        """Release resources; the sink must tolerate further events."""


class NullSink(Sink):
    """Discards everything."""


class InMemorySink(Sink):
    """Buffers records in memory — the test/debug destination."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.metrics: list[dict[str, Any]] = []

    def on_span(self, record: dict[str, Any]) -> None:
        self.spans.append(record)

    def on_metrics(self, snapshot: dict[str, Any]) -> None:
        self.metrics.append(snapshot)

    # -- query helpers -----------------------------------------------------

    def by_name(self, name: str) -> list[dict[str, Any]]:
        """All span records with the given event name, arrival order."""
        return [record for record in self.spans if record["name"] == name]

    def children_of(self, span_id: int) -> list[dict[str, Any]]:
        """Direct children of the span with id ``span_id``."""
        return [record for record in self.spans if record["parent"] == span_id]

    def roots(self) -> list[dict[str, Any]]:
        """Span records with no parent."""
        return [record for record in self.spans if record["parent"] is None]

    def clear(self) -> None:
        self.spans.clear()
        self.metrics.clear()


class JsonlSink(Sink):
    """Appends one JSON object per line to ``path`` (or a file object).

    The file is opened lazily on the first record so constructing a
    sink that never fires creates no file.

    Durability: every completed span *tree* — a record with no parent —
    triggers a flush (disable with ``flush_on_root=False``), and the
    sink registers an ``atexit`` close when it first opens its own
    file.  A process killed between requests therefore leaves a file of
    complete, parseable lines; only a kill in the middle of a single
    ``write`` can truncate, and then only the final line.  The sink is
    also a context manager::

        with JsonlSink("trace.jsonl") as sink:
            with install(Observer([sink])):
                ...
    """

    def __init__(self, path_or_file: str | IO[str], *,
                 flush_on_root: bool = True) -> None:
        if isinstance(path_or_file, str):
            self.path: str | None = path_or_file
            self._handle: IO[str] | None = None
            self._owns_handle = True
        else:
            self.path = getattr(path_or_file, "name", None)
            self._handle = path_or_file
            self._owns_handle = False
        self.records_written = 0
        self.flush_on_root = flush_on_root
        self._closed = False
        self._atexit_registered = False

    def _write(self, record: dict[str, Any]) -> None:
        if self._closed:
            return  # late events after close() are dropped, not errors
        if self._handle is None:
            assert self.path is not None
            self._handle = open(self.path, "w", encoding="utf-8")
            self._register_atexit()
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self.records_written += 1

    def _register_atexit(self) -> None:
        """Close (flushing) at interpreter exit — a killed-off server's
        trace file must never end mid-record."""
        if self._owns_handle and not self._atexit_registered:
            import atexit

            atexit.register(self.close)
            self._atexit_registered = True

    def on_span(self, record: dict[str, Any]) -> None:
        self._write(record)
        if self.flush_on_root and record.get("parent") is None:
            self.flush()

    def on_metrics(self, snapshot: dict[str, Any]) -> None:
        self._write({"event": "metrics", "metrics": snapshot})

    def flush(self) -> None:
        if self._handle is not None and not self._closed:
            self._handle.flush()

    def close(self) -> None:
        if self._closed:
            return
        if self._handle is not None:
            if self._owns_handle:
                self._handle.close()
                self._handle = None
            else:
                self._handle.flush()
        self._closed = True
        if self._atexit_registered:
            import atexit

            atexit.unregister(self.close)
            self._atexit_registered = False

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
