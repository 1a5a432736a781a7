"""Seeded request scripts for the served benchmark, with expected answers.

Every workload runs against one session over ``mixed_family(16)``
(|N| = 64) holding one random 200-dependency Σ.  A script is a list of
wire requests (``op`` + ``params``) split into an unmeasured warm-up
and a timed part.  Each step carries the answer an in-process
:class:`repro.core.session.Session` gives when it replays the whole
script in order, so every served answer can be checked.

Only the semantic fields of a result are compared (``implied``,
``closure``, ``basis``, ``added``, ``retracted``, ``sigma``).  The
``passes`` diagnostic of ``closure`` depends on the cache history and is
left out; mutation acks also carry a WAL ``seq``, which is not an answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.attributes.encoding import BasisEncoding
from repro.attributes.printer import unparse, unparse_abbreviated
from repro.core.session import Session
from repro.dependencies.dependency import (
    FunctionalDependency,
    MultivaluedDependency,
)
from repro.workloads.random_schemas import mixed_family
from repro.workloads.random_sigma import random_element_mask, random_sigma

SCALE = 16            # mixed_family(16): |N| = 64
SIGMA_SIZE = 200
#: Σ is drawn from this seed for every run: each ``--seed`` then varies
#: the request stream over one reasoning problem.  With a Σ per seed the
#: cold-read cost per request spread 11% over five seeds, against 3–7%
#: over repeats of one seed, so steadiness across seeds needs a fixed Σ.
SIGMA_SEED = 0
WORKING_SET = 16      # distinct LHSs of the hot-read working set
EDIT_SET = 8          # LHSs the edit workload's dependencies draw from
SESSION = "bench"

#: Read mix of both read workloads.  The repo holds no measured
#: traffic: the mix is chosen.  ``implies`` carries most of the weight,
#: and p50 falls inside the ``implies`` requests (70% of the mix), away
#: from the class boundaries where a quantile jumps between clusters of
#: latencies.
READ_MIX = (("fd", 35), ("mvd", 35), ("closure", 10), ("basis", 20))

#: Timed requests per second of ``--seconds`` (whole windows are run),
#: and requests per measurement window.  Sizing a run by request count
#: keeps its counts and its memory independent of host speed.
RATE = {"hot-read": 800, "cold-read": 80, "edit-replicated": 150}
WINDOW = {"hot-read": 24, "cold-read": 4, "edit-replicated": 6}
#: Right-hand sides are drawn from a pool of this many per run.
RHS_POOL = 64

WORKLOADS = tuple(RATE)


@dataclass(frozen=True)
class Step:
    """One wire request and the semantic fields of its expected result."""

    op: str
    params: dict[str, Any]
    expect: dict[str, Any]

    def problem(self, result: dict[str, Any] | Exception) -> str | None:
        """Why ``result`` (or the error raised instead) is not the
        expected answer; ``None`` when it is."""
        if isinstance(result, Exception):
            return f"{self.op}: {type(result).__name__}: {result}"
        if all(result.get(key) == value
               for key, value in self.expect.items()):
            return None
        return (f"{self.op} {self.params}: got {result}, "
                f"expected {self.expect}")


@dataclass
class Script:
    workload: str
    seed: int
    schema: str
    sigma: list[str]
    warmup: list[Step] = field(default_factory=list)
    timed: list[Step] = field(default_factory=list)
    window: int = 1

    def windows(self):
        """The timed steps in consecutive measurement windows."""
        for start in range(0, len(self.timed), self.window):
            yield self.timed[start:start + self.window]


class _Oracle:
    """Replays steps through an in-process Session, recording answers."""

    def __init__(self, root, sigma: list[str]) -> None:
        self.root = root
        self.session = Session(root, sigma)

    def _text(self, attribute) -> str:
        return unparse_abbreviated(attribute, self.root)

    def step(self, op: str, **params: Any) -> Step:
        session = self.session
        if op == "implies":
            expect = {"implied": session.implies(params["dependency"])}
        elif op == "closure":
            expect = {"closure": self._text(session.closure(params["x"]))}
        elif op == "basis":
            expect = {"basis": [self._text(member) for member in
                                session.dependency_basis(params["x"])]}
        elif op == "add":
            added = session.add(params["dependency"])
            expect = {"added": added, "sigma": len(session)}
        elif op == "retract":
            removed = session.retract(params["dependency"])
            expect = {"retracted": removed.display(self.root),
                      "sigma": len(session)}
        else:
            raise ValueError(f"no oracle for op {op!r}")
        return Step(op, {"session": SESSION, **params}, expect)


def _read_step(oracle: _Oracle, rng: random.Random, encoding: BasisEncoding,
               lhs_mask: int, kind: str, rhs_pool: list[int]) -> Step:
    root = oracle.root
    lhs = encoding.decode(lhs_mask)
    if kind in ("fd", "mvd"):
        rhs = encoding.decode(rng.choice(rhs_pool))
        cls = FunctionalDependency if kind == "fd" else MultivaluedDependency
        return oracle.step("implies",
                           dependency=cls(lhs, rhs).display(root))
    return oracle.step(kind, x=unparse_abbreviated(lhs, root))


def _fresh_mask(rng: random.Random, encoding: BasisEncoding,
                seen: set[int]) -> int:
    while True:
        mask = random_element_mask(rng, encoding, 0.25)
        if mask not in seen:
            seen.add(mask)
            return mask


def _kinds(rng: random.Random, count: int) -> list[str]:
    names = [name for name, _ in READ_MIX]
    weights = [weight for _, weight in READ_MIX]
    return rng.choices(names, weights, k=count)


def build(workload: str, seed: int, seconds: int) -> Script:
    """The seeded script of ``workload``: Σ, warm-up and timed steps.

    Σ is fixed (:data:`SIGMA_SEED`); the request stream depends on
    ``seed`` and the workload.  The timed part holds
    ``seconds × RATE`` requests, rounded up to whole windows.
    """
    if workload not in RATE:
        raise ValueError(f"unknown workload {workload!r}")
    root = mixed_family(SCALE)
    encoding = BasisEncoding.of(root, None)
    sigma = [dependency.display(root) for dependency in
             random_sigma(random.Random(SIGMA_SEED), encoding, SIGMA_SIZE)]
    script = Script(workload, seed, unparse(root), sigma,
                    window=WINDOW[workload])
    windows = -(-seconds * RATE[workload] // script.window)
    count = windows * script.window
    rng = random.Random(f"{seed}:{workload}")
    oracle = _Oracle(root, sigma)
    rhs_pool = [random_element_mask(rng, encoding, 0.35)
                for _ in range(RHS_POOL)]

    def read(mask: int, kind: str) -> Step:
        return _read_step(oracle, rng, encoding, mask, kind, rhs_pool)

    seen: set[int] = set()
    if workload == "hot-read":
        working_set = [_fresh_mask(rng, encoding, seen)
                       for _ in range(WORKING_SET)]
        # warm-up computes every working-set LHS, so each timed answer
        # is a cache hit
        script.warmup = [read(mask, "basis") for mask in working_set]
        script.timed = [read(rng.choice(working_set), kind)
                        for kind in _kinds(rng, count)]
    elif workload == "cold-read":
        script.warmup = [read(_fresh_mask(rng, encoding, seen), kind)
                         for kind in _kinds(rng, 2 * script.window)]
        script.timed = [read(_fresh_mask(rng, encoding, seen), kind)
                        for kind in _kinds(rng, count)]
    else:
        edit_set = [_fresh_mask(rng, encoding, seen)
                    for _ in range(EDIT_SET)]
        script.warmup = [read(mask, "closure") for mask in edit_set]
        script.timed = _edit_cycles(oracle, rng, encoding, rhs_pool,
                                    edit_set, count // 6)
    return script


def _edit_cycles(oracle: _Oracle, rng: random.Random,
                 encoding: BasisEncoding, rhs_pool: list[int],
                 edit_set: list[int], cycles: int) -> list[Step]:
    """Per cycle: ``add σ``, two fenced probes, ``retract σ``, two probes.

    σ is a random FD or MVD not in Σ whose left-hand side X comes from
    ``edit_set``, whose closures the warm-up cached on the follower.
    Each add and each retract is a real mutation (one WAL record each).
    The probes are ``closure X`` and ``implies σ``.  After the add the
    closure warm-starts X's cached fixpoint with σ pending; after the
    retract it recomputes X⁺ when σ had fired into it (an invalidation)
    and is a hit otherwise; ``implies σ`` is then answered from it.
    After the add both probes must already reflect σ on the follower:
    read-your-writes.  The two cheap steps per edit keep p50 inside the
    cheap requests and p90 inside the closures, away from the gap
    between them.
    """
    root = oracle.root
    session = oracle.session
    steps: list[Step] = []
    for _ in range(cycles):
        while True:
            lhs = encoding.decode(rng.choice(edit_set))
            rhs = encoding.decode(rng.choice(rhs_pool))
            cls = (MultivaluedDependency if rng.random() < 0.5
                   else FunctionalDependency)
            dependency = cls(lhs, rhs)
            if dependency not in session:
                break
        text = dependency.display(root)
        x = unparse_abbreviated(lhs, root)
        for edit in ("add", "retract"):
            steps.append(oracle.step(edit, dependency=text))
            steps.append(oracle.step("closure", x=x))
            steps.append(oracle.step("implies", dependency=text))
    return steps
