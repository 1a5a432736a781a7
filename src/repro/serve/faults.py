"""Deterministic, seed-driven server-side fault injection (tests only).

The chaos/differential test suite needs the server to misbehave *on
purpose* and *reproducibly*: the same :class:`FaultPlan` against the
same request sequence must inject exactly the same faults, so a faulted
run can be compared byte-for-byte against a fault-free replay.  Four
fault kinds cover the failure modes the resilience layer
(:mod:`repro.serve.resilience`) must survive:

* ``delay``    — sleep before handling (injected latency);
* ``error``    — answer with a typed *retryable* error (``overloaded``
  or ``timeout``) instead of executing the request;
* ``drop``     — close the connection, either ``pre`` (before the
  request executes — it never runs) or ``post`` (after its response
  was delivered);
* ``truncate`` — execute, then deliver only a prefix of the response
  frame and close — the client must treat the torn frame as a lost
  connection;
* ``crash``    — die the way SIGKILL would (``os._exit``, no flush, no
  atexit) at a *store* fault point.  Crash rules match the durable
  store's internal point names (``store.append``, ``store.snapshot``,
  ``store.compact``) instead of wire ops, with ``when`` selecting the
  phase: ``pre`` (before any byte is written), ``mid`` (a torn,
  partial write) or ``post`` (written and flushed, but the state
  transition unfinished — e.g. a compaction whose manifest never
  adopted its snapshot).  The crash-recovery suite drives its whole
  SIGKILL matrix through these (see docs/PERSISTENCE.md).

Store points never match an ``op: "*"`` rule — a wildcard delay/error
plan must not accidentally kill the process — and only ``crash`` rules
may name them.

Determinism: every rule owns a private :class:`random.Random` seeded
from ``(plan seed, rule index)``, and probabilistic draws consume that
stream once per *matching* request — so a rule's firing sequence
depends only on the sequence of requests it matched, never on what
other rules did.  Counting triggers (``every``/``after``/``times``)
are plain per-rule counters.

A plan is plain JSON (see docs/SERVER.md), enabled on a served process
with ``python -m repro serve --fault-plan PATH_OR_JSON``::

    {"seed": 42, "rules": [
        {"op": "implies", "kind": "error", "code": "overloaded", "p": 0.1},
        {"op": "*", "kind": "delay", "seconds": 0.005, "every": 7},
        {"op": "closure", "kind": "truncate", "every": 3, "times": 5},
        {"op": "ping", "kind": "drop", "when": "pre", "after": 2}
    ]}

Every injected fault is counted (``serve.fault.injected``,
``serve.fault.<kind>``) and traced as a ``serve.fault`` span through
:mod:`repro.obs`; the ``health`` op is answered before injection and
backpressure, so a probe can always reach a faulted server.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Iterable

from .protocol import OPS, RETRYABLE

__all__ = ["FAULT_KINDS", "STORE_POINTS", "FaultAction", "FaultRule",
           "FaultPlan", "FaultInjector"]

#: Every fault kind a rule may inject.
FAULT_KINDS = frozenset({"delay", "error", "drop", "truncate", "crash"})

#: The durable store's internal fault points (crash rules only; see
#: :mod:`repro.store`).
STORE_POINTS = frozenset({"store.append", "store.snapshot",
                          "store.compact"})


class FaultAction:
    """One decided injection: what to do to the current request."""

    __slots__ = ("kind", "code", "seconds", "when", "rule")

    def __init__(self, kind: str, *, code: str = "", seconds: float = 0.0,
                 when: str = "pre", rule: int = -1) -> None:
        self.kind = kind
        self.code = code
        self.seconds = seconds
        self.when = when
        self.rule = rule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = {"error": self.code, "delay": f"{self.seconds}s",
                  "drop": self.when}.get(self.kind, "")
        return f"FaultAction({self.kind}{f' {detail}' if detail else ''})"


class FaultRule:
    """A matcher (``op``), a trigger (``p``/``every``/``after``/``times``)
    and the fault to inject when it fires.

    Exactly one of ``p`` (seeded probability per matching request) and
    ``every`` (fire on every *k*-th matching request) selects firings;
    omitting both fires on every match.  ``after`` skips the first *n*
    matches entirely; ``times`` caps the total number of firings.
    """

    __slots__ = ("op", "kind", "code", "seconds", "when", "p", "every",
                 "times", "after")

    def __init__(self, *, op: str = "*", kind: str, code: str | None = None,
                 seconds: float | None = None, when: str = "pre",
                 p: float | None = None, every: int | None = None,
                 times: int | None = None, after: int = 0) -> None:
        if op != "*" and op not in OPS and op not in STORE_POINTS:
            raise ValueError(f"fault rule op {op!r} is neither a server op "
                             f"nor a store fault point")
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(one of {sorted(FAULT_KINDS)})")
        if kind == "crash":
            if op not in STORE_POINTS:
                raise ValueError(
                    f"'crash' rules only apply to store fault points "
                    f"({sorted(STORE_POINTS)}), got op {op!r}")
            if when not in ("pre", "mid", "post"):
                raise ValueError(f"'when' must be 'pre', 'mid' or 'post' "
                                 f"for kind 'crash', got {when!r}")
        elif op in STORE_POINTS:
            raise ValueError(f"store fault point {op!r} only accepts "
                             f"kind 'crash', not {kind!r}")
        if kind == "error":
            if code not in RETRYABLE:
                raise ValueError(
                    f"injected error code must be retryable "
                    f"({sorted(RETRYABLE)}), got {code!r}")
        elif code is not None:
            raise ValueError(f"'code' only applies to kind 'error', "
                             f"not {kind!r}")
        if kind == "delay":
            if seconds is None or seconds <= 0:
                raise ValueError("'delay' rules need seconds > 0")
        elif seconds is not None:
            raise ValueError(f"'seconds' only applies to kind 'delay', "
                             f"not {kind!r}")
        if kind == "drop":
            if when not in ("pre", "post"):
                raise ValueError(f"'when' must be 'pre' or 'post', got {when!r}")
        if p is not None and every is not None:
            raise ValueError("give either 'p' or 'every', not both")
        if p is not None and not 0.0 < p <= 1.0:
            raise ValueError(f"'p' must be in (0, 1], got {p!r}")
        if every is not None and every < 1:
            raise ValueError(f"'every' must be >= 1, got {every!r}")
        if times is not None and times < 1:
            raise ValueError(f"'times' must be >= 1, got {times!r}")
        if after < 0:
            raise ValueError(f"'after' must be >= 0, got {after!r}")
        self.op = op
        self.kind = kind
        self.code = code or ""
        self.seconds = seconds or 0.0
        self.when = when
        self.p = p
        self.every = every
        self.times = times
        self.after = after

    def matches(self, op: str) -> bool:
        if op in STORE_POINTS:
            # wildcard rules must never reach inside the store
            return self.op == op
        return self.op == "*" or self.op == op

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"op": self.op, "kind": self.kind}
        if self.kind == "error":
            data["code"] = self.code
        if self.kind == "delay":
            data["seconds"] = self.seconds
        if self.kind in ("drop", "crash"):
            data["when"] = self.when
        if self.p is not None:
            data["p"] = self.p
        if self.every is not None:
            data["every"] = self.every
        if self.times is not None:
            data["times"] = self.times
        if self.after:
            data["after"] = self.after
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"a fault rule must be a JSON object, "
                            f"got {type(data).__name__}")
        known = {"op", "kind", "code", "seconds", "when", "p", "every",
                 "times", "after"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault rule keys {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("a fault rule needs a 'kind'")
        return cls(**data)


class FaultPlan:
    """An ordered rule list plus the seed that makes it deterministic."""

    __slots__ = ("seed", "rules")

    def __init__(self, rules: Iterable[FaultRule | dict], *,
                 seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: tuple[FaultRule, ...] = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in rules)
        if not self.rules:
            raise ValueError("a fault plan needs at least one rule")

    def as_dict(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "rules": [rule.as_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from error
        if not isinstance(data, dict) or "rules" not in data:
            raise ValueError("fault plan must be an object with 'rules'")
        return cls(data["rules"], seed=data.get("seed", 0))

    @classmethod
    def load(cls, spec: str) -> "FaultPlan":
        """Parse ``spec`` as inline JSON (starts with ``{``) or a file path."""
        stripped = spec.strip()
        if stripped.startswith("{"):
            return cls.from_json(stripped)
        if not os.path.exists(spec):
            raise ValueError(f"fault plan file not found: {spec!r}")
        with open(spec, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class _RuleState:
    """Per-rule runtime state: match/fire counters and a private RNG."""

    __slots__ = ("rule", "rng", "matched", "fired")

    def __init__(self, rule: FaultRule, seed: int, index: int) -> None:
        self.rule = rule
        # Rule-private stream: a rule's decisions depend only on the
        # requests *it* matched, so adding a rule never perturbs the
        # firing pattern of the others.
        self.rng = random.Random(f"{seed}:{index}")
        self.matched = 0
        self.fired = 0

    def fires(self, op: str) -> bool:
        rule = self.rule
        if not rule.matches(op):
            return False
        self.matched += 1
        if self.matched <= rule.after:
            return False
        if rule.times is not None and self.fired >= rule.times:
            return False
        if rule.p is not None:
            # draw even when the outcome is predetermined-false so the
            # stream position stays a pure function of the match count
            if self.rng.random() >= rule.p:
                return False
        elif rule.every is not None:
            if (self.matched - rule.after) % rule.every != 0:
                return False
        self.fired += 1
        return True


class FaultInjector:
    """The stateful decision engine a :class:`ReasoningServer` consults.

    ``decide(op)`` walks the plan's rules in order and returns the
    first one that fires as a :class:`FaultAction` (or ``None``).
    Rules that match but do not fire still advance their counters and
    RNG stream, so decisions are a pure function of the per-rule match
    sequences.  Every injection is appended to :attr:`injected`; the
    server counts it in its tally (``serve.fault.injected`` and
    ``serve.fault.<kind>``) and emits the ``serve.fault`` span at the
    point the fault is applied.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._states = [_RuleState(rule, plan.seed, index)
                        for index, rule in enumerate(plan.rules)]
        #: Chronological ``(op, kind)`` log of every injected fault.
        self.injected: list[tuple[str, str]] = []

    def decide(self, op: str) -> FaultAction | None:
        action = None
        for index, state in enumerate(self._states):
            if state.fires(op) and action is None:
                rule = state.rule
                action = FaultAction(rule.kind, code=rule.code,
                                     seconds=rule.seconds, when=rule.when,
                                     rule=index)
                # keep walking: later rules must still consume their
                # match (and, for p-rules, their draw) for determinism
        if action is not None:
            self.injected.append((op, action.kind))
        return action

    def stats(self) -> dict[str, int]:
        """Injection tallies by kind (plus the total)."""
        tallies: dict[str, int] = {"injected": len(self.injected)}
        for _op, kind in self.injected:
            tallies[kind] = tallies.get(kind, 0) + 1
        return tallies
