"""Counters and bounded histograms for the membership engine.

Two metric kinds cover everything the engine wants to report:

* **Counters** — monotone totals (closure passes, rule firings,
  encoding cache hits, exchange tuples added by the chase).
* **Histograms** — distributions over a *fixed*, bounded set of
  buckets, so a long-lived registry (shell sessions, servers) has O(1)
  memory per metric no matter how many observations flow through it.
  The default bucket boundaries are powers of two, which matches the
  engine's quantities (pass counts, fan-out widths, dirty-set sizes)
  across several orders of magnitude.

The registry is deliberately dumb: no tags, no time windows, no
locking.  Per-query attribution lives on spans; the registry answers
"what did this session do in aggregate" — the face of
``KernelStats``/``cache_info()`` generalised to every layer.

A :class:`Tally` keeps one node's (or client's) counts whether or not
an observer is installed, and mirrors each into the installed one.
"""

from __future__ import annotations

import collections
from bisect import bisect_left
from typing import Any, Sequence

__all__ = ["Counter", "Histogram", "MetricsRegistry", "Tally",
           "DEFAULT_BOUNDS"]

#: Default histogram bucket upper bounds (inclusive); observations above
#: the last bound land in the overflow bucket.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(2 ** k for k in range(0, 21, 2))


class Counter:
    """A named monotone total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A bounded histogram with fixed bucket boundaries.

    ``bounds`` are inclusive upper edges in ascending order; one
    overflow bucket catches everything beyond the last edge.  Count,
    sum, min and max ride along so averages and ranges survive the
    bucketing.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.2f})")


class MetricsRegistry:
    """Name-keyed counters and histograms with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def add(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """``{"counters": {name: value}, "histograms": {name: {...}}}``."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def describe(self) -> str:
        """Readable dump for the CLI ``--metrics`` / shell ``metrics``."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name} = {counter.value}")
        for name, histogram in sorted(self._histograms.items()):
            lines.append(
                f"{name}: count={histogram.count} mean={histogram.mean:.2f} "
                f"min={histogram.min} max={histogram.max}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)


class Tally(collections.Counter):
    """Always-on counts (an unseen name reads 0); :meth:`add` is the
    one place a count is mirrored into the installed observer."""

    def add(self, name: str, amount: int = 1) -> None:
        self[name] += amount
        get_observer().add(name, amount)


# Imported last: ``spans`` builds each observer's registry from this module.
from .spans import get_observer  # noqa: E402
