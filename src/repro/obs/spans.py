"""Hierarchical tracing spans with monotonic timing.

A :class:`Span` covers one logical unit of engine work — a closure run,
a membership query, a batch sweep, a chase — with a monotonic
``start_ns``/``end_ns`` interval, a parent/child link, and a free-form
attribute dict (``|N|``, ``|Σ|``, worklist passes, verdicts, …).  Spans
are produced through :class:`Observer.span`, a context manager that
maintains the nesting stack, so instrumented call trees come out
correctly parented without any explicit plumbing::

    with observer.span("command.run", command="implies_batch") as span:
        with observer.span("closure.compute", size=48):
            ...
        span.set(ok=True)

The cardinal design constraint is the *disabled* path: the engine is
instrumented unconditionally, so when no observer is installed every
hook must cost no more than an attribute check.  :data:`NULL_SPAN` is a
singleton stand-in whose methods all no-op, and
:meth:`Observer.span` on a disabled observer returns it without
allocating anything.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from .metrics import MetricsRegistry
from .sinks import Sink

__all__ = ["Span", "Observer", "NULL_SPAN", "get_observer", "set_observer"]


class Span:
    """One timed, attributed unit of work.

    Attributes
    ----------
    name:
        Dotted event name, e.g. ``"closure.compute"``.
    span_id / parent_id:
        Small integers, unique per observer; root spans have
        ``parent_id is None``.
    start_ns / end_ns:
        ``time.monotonic_ns`` timestamps; ``end_ns`` is ``None`` while
        the span is open.
    attributes:
        Free-form JSON-able payload (see docs/OBSERVABILITY.md for the
        documented keys per span name).
    """

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns",
                 "attributes", "_observer")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 observer: "Observer | None" = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = time.monotonic_ns()
        self.end_ns: int | None = None
        self.attributes: dict[str, Any] = {}
        self._observer = observer

    # -- attributes --------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_ns(self) -> int | None:
        """Elapsed nanoseconds, or ``None`` while still open."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._observer is not None:
            self._observer._finish(self)

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """The JSONL record shape (``{"event": "span", ...}``)."""
        return {
            "event": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": dict(self.attributes),
        }

    def __repr__(self) -> str:
        state = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan:
    """Inert singleton returned by disabled observers — every hook on it
    is a no-op, so instrumented code needs no ``if enabled`` guards of
    its own around attribute writes."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Observer:
    """Span factory + metrics registry + sink fan-out for one session.

    Parameters
    ----------
    sinks:
        :class:`~repro.obs.sinks.Sink` instances receiving every
        finished span (and metric snapshots on :meth:`flush`).  May be
        empty — metrics still accumulate in :attr:`metrics`.
    enabled:
        A disabled observer hands out :data:`NULL_SPAN` and drops
        metric updates; the module-level default observer is disabled,
        which is what keeps the un-observed engine at native speed.

    Not thread-safe by design: the engine is single-threaded per
    process.
    """

    def __init__(self, sinks: Iterable[Sink] = (), *, enabled: bool = True) -> None:
        self.sinks: list[Sink] = list(sinks)
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self._stack: list[int] = []
        self._next_id = 1

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a child span of the innermost open span (context manager)."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._next_id, parent, observer=self)
        self._next_id += 1
        if attributes:
            span.attributes.update(attributes)
        self._stack.append(span.span_id)
        return span

    def _finish(self, span: Span) -> None:
        span.end_ns = time.monotonic_ns()
        # Exceptions can unwind several spans at once; pop to this one.
        while self._stack and self._stack[-1] != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        for sink in self.sinks:
            sink.on_span(span.as_dict())

    def current_span_id(self) -> int | None:
        """Id of the innermost open span (``None`` at the top level)."""
        return self._stack[-1] if self._stack else None

    # -- metrics -----------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.metrics.add(name, amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (no-op when disabled)."""
        if self.enabled:
            self.metrics.observe(name, value)

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Push a metrics snapshot to the sinks and flush them."""
        snapshot = self.metrics.snapshot()
        for sink in self.sinks:
            sink.on_metrics(snapshot)
            sink.flush()

    def close(self) -> None:
        """Flush, then close every sink."""
        self.flush()
        for sink in self.sinks:
            sink.close()


#: The installed observer; a single disabled instance by default so the
#: hot-path check ``get_observer().enabled`` is one list index + one
#: attribute read.
_CURRENT: list[Observer] = [Observer(enabled=False)]


def get_observer() -> Observer:
    """The currently installed (possibly disabled) observer."""
    return _CURRENT[0]


def set_observer(observer: Observer | None) -> Observer:
    """Install ``observer`` (``None`` = disabled default); returns the
    previous one so callers can restore it in a ``finally``."""
    previous = _CURRENT[0]
    _CURRENT[0] = observer if observer is not None else Observer(enabled=False)
    return previous
