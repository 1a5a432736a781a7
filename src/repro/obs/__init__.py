"""``repro.obs`` — observability for the membership engine.

Hierarchical tracing spans, counters/bounded histograms, and pluggable
sinks, instrumenting Algorithm 5.1's hot paths (closure kernel,
reasoner cache, batch fan-out, chase) at *run/query* granularity: the
per-iteration loops stay untouched, so a disabled observer — the
default — costs one attribute check per closure run (proved <3% on the
E7 chain by ``benchmarks/bench_obs_overhead.py``).

Quick start::

    from repro.obs import Observer, InMemorySink, install

    sink = InMemorySink()
    with install(Observer([sink])):
        reasoner.implies("R(A) -> R(B)")
    sink.by_name("closure.compute")   # -> [span record, ...]

Span names, attribute keys, metric names and the JSONL schema are
documented in ``docs/OBSERVABILITY.md``.  The CLI exposes the layer via
``--trace-json PATH`` / ``--metrics``; the shell via ``trace on/off``
and ``metrics``.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import Counter, Histogram, MetricsRegistry, Tally, DEFAULT_BOUNDS
from .sinks import InMemorySink, JsonlSink, NullSink, Sink
from .spans import NULL_SPAN, Observer, Span, get_observer, set_observer
from .validate import validate_records, validate_trace

__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSink",
    "Observer",
    "Sink",
    "Span",
    "Tally",
    "get_observer",
    "install",
    "set_observer",
    "validate_records",
    "validate_trace",
]


@contextmanager
def install(observer: Observer):
    """Install ``observer`` for the duration of a ``with`` block.

    Restores the previous observer on exit and closes the installed
    one's sinks (flushing a final metrics snapshot).
    """
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
        observer.close()
