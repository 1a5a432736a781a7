"""Engine registry: named, swappable implementations of Algorithm 5.1.

Before this module, every consumer hard-imported one of the three
kernels (the worklist kernel of :mod:`repro.core.engine`, the naive
transcription in :mod:`repro.core.closure`, or the structural reference
in :mod:`repro.core.reference`).  The registry gives them one name-based
entry point with a uniform mask-level calling convention::

    engine = get_engine("worklist")          # or None for the default
    x_plus, blocks, passes = engine.run(
        encoding, x_mask, fd_masks, mvd_masks,
        stats=stats, fired=fired, warm_start=warm_start, plan=plan,
    )

All registered engines are bit-identical on ``(X⁺, DB)`` — the corpus
replay suite asserts three-way agreement — and differ only in cost model
and capabilities:

``worklist``
    The dirty-set kernel (:func:`repro.core.engine.closure_of_masks_fast`
    behind the observability wrapper), run off the supplied
    :class:`~repro.core.plan.CompiledPlan` — or off one compiled for the
    call when ``plan`` is ``None``.  Supports warm starts and exact
    provenance.  The default.
``naive``
    The pass-by-pass transcription of the paper's pseudocode.  Supports
    warm starts (seeding ``(X_new, DB_new)``) and provenance; the only
    engine with trace support (requested via
    :func:`repro.core.closure.compute_closure`, not through the
    registry).
``reference``
    The structural implementation over ``NestedAttribute`` values —
    deliberately slow, deliberately encoding-free.  No warm starts; its
    provenance is the conservative "all of Σ".

Only the worklist engine reads ``plan`` (:attr:`Engine.reads_plan`);
the other two take it and ignore it, so a caller can always pass the
plan it holds.  A plan-reading engine given a plan takes Σ from it
alone: a :class:`~repro.core.session.Session` passes ``None`` for the
mask tables and speaks in the plan's member slots.

The *default* engine is process-global state consulted by every caller
that does not pin a name (``get_engine(None)``); the CLI's ``--engine``
flag and the shell's ``engine`` command set it via
:func:`set_default_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from ..attributes.encoding import BasisEncoding
from ..dependencies.dependency import FunctionalDependency, MultivaluedDependency
from .engine import KernelStats
from .plan import CompiledPlan, compile_plan
from .reference import reference_closure

__all__ = [
    "Engine",
    "available_engines",
    "get_default_engine",
    "get_engine",
    "register_engine",
    "set_default_engine",
]


class _RunFn(Protocol):
    def __call__(
        self,
        encoding: BasisEncoding,
        x_mask: int,
        fd_masks: Sequence[tuple[int, int]],
        mvd_masks: Sequence[tuple[int, int]],
        *,
        stats: KernelStats | None = None,
        fired: set[int] | None = None,
        warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
        plan: CompiledPlan | None = None,
    ) -> tuple[int, frozenset[int], int]: ...


@dataclass(frozen=True)
class Engine:
    """A named Algorithm 5.1 implementation with a uniform run API.

    Attributes
    ----------
    name:
        Registry key (``"worklist"``, ``"naive"``, ``"reference"``).
    description:
        One-line human description (the shell's ``engine`` command
        prints it).
    supports_warm_start:
        Whether :meth:`run` honours the ``warm_start`` resume state.  A
        :class:`~repro.core.session.Session` falls back to a cold
        recompute when the selected engine cannot warm-start.
    supports_trace:
        Whether the underlying kernel can replay pass-by-pass traces
        (only the naive transcription can).
    reads_plan:
        Whether :meth:`run` runs off the supplied ``plan``: Σ comes from
        the plan (the mask arguments may be ``None``) and ``fired`` /
        ``warm_start`` indices are the plan's slots.  Other engines take
        Σ from the mask arguments, indexed FDs-then-MVDs.
    """

    name: str
    description: str
    supports_warm_start: bool
    supports_trace: bool
    _run: _RunFn = field(repr=False)
    reads_plan: bool = False

    def run(
        self,
        encoding: BasisEncoding,
        x_mask: int,
        fd_masks: Sequence[tuple[int, int]] | None,
        mvd_masks: Sequence[tuple[int, int]] | None,
        *,
        stats: KernelStats | None = None,
        fired: set[int] | None = None,
        warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
        plan: CompiledPlan | None = None,
    ) -> tuple[int, frozenset[int], int]:
        """Compute ``(X⁺, DB, passes)`` for ``x_mask`` under the mask Σ.

        ``fired`` optionally collects provenance (FDs-then-MVDs indices
        of productive firings); ``warm_start`` optionally resumes from a
        smaller-Σ fixpoint ``(x_plus, blocks, pending_indices)`` when
        :attr:`supports_warm_start` — it is a programming error to pass
        one otherwise.  ``plan`` optionally supplies the compiled form
        of the same Σ (module doc); an engine that :attr:`reads_plan`
        then accepts ``None`` for both mask arguments.
        """
        if warm_start is not None and not self.supports_warm_start:
            raise ValueError(
                f"engine {self.name!r} does not support warm starts"
            )
        return self._run(
            encoding, x_mask, fd_masks, mvd_masks,
            stats=stats, fired=fired, warm_start=warm_start, plan=plan,
        )


_REGISTRY: dict[str, Engine] = {}
_DEFAULT_NAME = "worklist"


def register_engine(engine: Engine) -> Engine:
    """Add an engine to the registry (last registration wins per name)."""
    _REGISTRY[engine.name] = engine
    return engine


def available_engines() -> tuple[str, ...]:
    """Registered engine names, registration order."""
    return tuple(_REGISTRY)


def get_engine(name: str | None = None) -> Engine:
    """Look up an engine by name; ``None`` means the current default.

    Raises ``ValueError`` (message ``unknown kernel ...``, matching the
    historical :func:`~repro.core.closure.compute_closure` contract) for
    unregistered names.
    """
    if name is None:
        name = _DEFAULT_NAME
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown kernel {name!r} (available: {known})"
        ) from None


def get_default_engine() -> Engine:
    """The engine used when no name is pinned."""
    return get_engine(None)


def set_default_engine(name: str) -> str:
    """Set the process-global default engine; returns the previous name.

    The CLI wraps command dispatch in ``set_default_engine`` /
    restore-previous so ``--engine`` never leaks across invocations in
    the same process (tests drive ``main()`` repeatedly).
    """
    global _DEFAULT_NAME
    get_engine(name)  # validate before switching
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = name
    return previous


# -- adapters ------------------------------------------------------------


def _worklist_run(
    encoding: BasisEncoding,
    x_mask: int,
    fd_masks: Sequence[tuple[int, int]] | None,
    mvd_masks: Sequence[tuple[int, int]] | None,
    *,
    stats: KernelStats | None = None,
    fired: set[int] | None = None,
    warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
    plan: CompiledPlan | None = None,
) -> tuple[int, frozenset[int], int]:
    # Route through the observability wrapper so every run — registry or
    # direct — shows up as a ``closure.compute`` span when tracing is on.
    from .closure import closure_of_masks_instrumented

    if plan is None:
        plan = compile_plan(encoding, fd_masks, mvd_masks)
    elif fd_masks is not None and (plan.fd_total != len(fd_masks)
                                   or plan.mvd_total != len(mvd_masks)):
        raise ValueError(
            "compiled plan does not match the supplied Σ: plan has "
            f"{plan.fd_total} FDs / {plan.mvd_total} MVDs, call has "
            f"{len(fd_masks)} / {len(mvd_masks)}"
        )
    return closure_of_masks_instrumented(
        plan, x_mask, stats=stats, fired=fired, warm_start=warm_start,
    )


def _naive_run(
    encoding: BasisEncoding,
    x_mask: int,
    fd_masks: Sequence[tuple[int, int]],
    mvd_masks: Sequence[tuple[int, int]],
    *,
    stats: KernelStats | None = None,
    fired: set[int] | None = None,
    warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
    plan: CompiledPlan | None = None,
) -> tuple[int, frozenset[int], int]:
    from .closure import closure_of_masks

    initial = (warm_start[0], warm_start[1]) if warm_start is not None else None
    x_plus, blocks, passes = closure_of_masks(
        encoding, x_mask, fd_masks, mvd_masks, fired=fired, initial=initial,
    )
    if stats is not None:
        # The naive kernel has no internal counters; runs/passes/firings
        # are exact from the outside (every pass fires all of Σ).
        stats.runs += 1
        stats.passes += passes
        stats.firings += passes * (len(fd_masks) + len(mvd_masks))
    return x_plus, blocks, passes


def _reference_run(
    encoding: BasisEncoding,
    x_mask: int,
    fd_masks: Sequence[tuple[int, int]],
    mvd_masks: Sequence[tuple[int, int]],
    *,
    stats: KernelStats | None = None,
    fired: set[int] | None = None,
    warm_start: tuple[int, Iterable[int], Sequence[int]] | None = None,
    plan: CompiledPlan | None = None,
) -> tuple[int, frozenset[int], int]:
    root = encoding.root
    decode = encoding.decode
    dependencies = [
        FunctionalDependency(decode(u), decode(v)) for (u, v) in fd_masks
    ] + [
        MultivaluedDependency(decode(u), decode(v)) for (u, v) in mvd_masks
    ]
    x_plus, db = reference_closure(root, decode(x_mask), dependencies)
    blocks = frozenset(encoding.encode(w) for w in db)
    if fired is not None:
        # The structural run does not track firings; the conservative
        # provenance ("everything may have mattered") keeps Session
        # retraction sound — it can only over-evict, never under-evict.
        fired.update(range(len(dependencies)))
    if stats is not None:
        stats.runs += 1
        stats.passes += 1
    return encoding.encode(x_plus), blocks, 1


register_engine(Engine(
    name="worklist",
    description="dirty-set worklist kernel over a compiled plan (fast; warm starts, provenance)",
    supports_warm_start=True,
    supports_trace=False,
    _run=_worklist_run,
    reads_plan=True,
))
register_engine(Engine(
    name="naive",
    description="pass-by-pass pseudocode transcription (traceable)",
    supports_warm_start=True,
    supports_trace=True,
    _run=_naive_run,
))
register_engine(Engine(
    name="reference",
    description="structural NestedAttribute implementation (slow; differential oracle)",
    supports_warm_start=False,
    supports_trace=False,
    _run=_reference_run,
))
