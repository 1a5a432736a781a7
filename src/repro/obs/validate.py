"""Round-trip validation of JSONL traces.

The acceptance bar for a trace file is structural, not semantic: every
span must have a monotonic ``start_ns ≤ end_ns``, a parent id that
refers to a span actually present in the trace (or ``null`` for
roots), and the attribute keys documented for its span name in
docs/OBSERVABILITY.md.  :func:`validate_trace` enforces exactly that,
so the CLI tests, the overhead benchmark, and offline consumers all
agree on what a well-formed trace is.

Attributes set *after* the work (verdicts, pass counts, chase rounds)
are only required when the span finished cleanly — a span that
recorded an ``error`` attribute legitimately lacks them.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = ["REQUIRED_ATTRS", "COMPLETION_ATTRS", "validate_records",
           "validate_trace"]

#: Attribute keys every span of a given name must carry (set at open).
REQUIRED_ATTRS: dict[str, tuple[str, ...]] = {
    "closure.compute": ("lhs", "size", "sigma", "fds", "mvds", "kernel"),
    "plan.compile": ("size", "sigma", "fds", "mvds", "incremental"),
    "reasoner.query": ("lhs", "cached"),
    "session.query": ("lhs", "cached", "engine", "warm"),
    "session.add": ("dependency", "sigma"),
    "session.retract": ("dependency", "sigma"),
    "reasoner.add": ("dependency", "sigma"),
    "reasoner.retract": ("dependency", "sigma"),
    "batch.implies_all": ("queries", "distinct_lhs"),
    "batch.query": ("index", "kind", "lhs"),
    "chase.run": ("tuples_in", "sigma", "fds", "mvds"),
    "serve.fault": ("op", "kind"),
    "client.retry": ("op", "attempt", "code", "sleep_s"),
    "command.run": ("command", "cost", "read_only"),
    "store.append": ("seq", "op"),
    "store.fsync": ("policy",),
    "store.snapshot": ("sessions", "last_seq"),
    "store.compact": ("records", "bytes"),
    "store.recover": ("data_dir",),
    "replicate.ship": ("follower", "from_seq"),
    "replicate.apply": ("from_seq",),
    "replicate.reset": ("last_seq", "sessions"),
    "replicate.fence": ("min_seq", "applied_seq"),
}

#: Attribute keys set on clean completion (absent after an error).
COMPLETION_ATTRS: dict[str, tuple[str, ...]] = {
    "closure.compute": ("passes", "firings", "requeues", "requeue_scanned",
                        "skipped_firings", "u_bar_lookups", "u_bar_blocks",
                        "block_splits", "db_rewrites",
                        "dirty_bits", "blocks", "encoding_cache_hits",
                        "encoding_cache_misses"),
    "plan.compile": ("folded",),
    "batch.query": ("verdict",),
    "chase.run": ("rounds", "added", "tuples_out"),
    "session.retract": ("evicted", "retained"),
    "reasoner.retract": ("evicted", "retained"),
    "command.run": ("ok",),
    "store.append": ("bytes",),
    "store.snapshot": ("bytes",),
    "store.compact": ("segments_removed",),
    "store.recover": ("sessions", "replayed", "torn"),
    "replicate.ship": ("records", "last_seq"),
    "replicate.apply": ("records", "applied_seq"),
    "replicate.fence": ("ok",),
}


def validate_records(records: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Validate span/metrics records; returns ``{"spans": n, "metrics": m}``.

    Raises
    ------
    ValueError
        Naming the first offending record and what is wrong with it.
    """
    spans: list[dict[str, Any]] = []
    metrics = 0
    for record in records:
        event = record.get("event")
        if event == "metrics":
            if "metrics" not in record:
                raise ValueError("metrics record without a 'metrics' payload")
            metrics += 1
        elif event == "span":
            spans.append(record)
        else:
            raise ValueError(f"unknown event kind {event!r}")

    seen_ids: set[int] = set()
    for span in spans:
        name = span.get("name")
        span_id = span.get("id")
        if not isinstance(span_id, int) or span_id in seen_ids:
            raise ValueError(f"span {name!r}: missing or duplicate id {span_id!r}")
        seen_ids.add(span_id)

    for span in spans:
        name, span_id = span["name"], span["id"]
        start, end = span.get("start_ns"), span.get("end_ns")
        if not isinstance(start, int) or not isinstance(end, int) or start > end:
            raise ValueError(
                f"span {name!r} (id {span_id}): non-monotonic interval "
                f"start_ns={start!r} end_ns={end!r}"
            )
        parent = span.get("parent")
        if parent is not None and parent not in seen_ids:
            raise ValueError(
                f"span {name!r} (id {span_id}): dangling parent id {parent!r}"
            )
        attrs = span.get("attrs")
        if not isinstance(attrs, dict):
            raise ValueError(f"span {name!r} (id {span_id}): missing attrs")
        required = REQUIRED_ATTRS.get(name, ())
        if "error" not in attrs:
            required = required + COMPLETION_ATTRS.get(name, ())
        missing = [key for key in required if key not in attrs]
        if missing:
            raise ValueError(
                f"span {name!r} (id {span_id}): missing attribute keys {missing}"
            )
    return {"spans": len(spans), "metrics": metrics}


def validate_trace(path: str) -> dict[str, int]:
    """Parse and validate a ``--trace-json`` JSONL file."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not valid JSON ({error})")
    return validate_records(records)
