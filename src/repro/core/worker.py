"""The process-pool worker shared by batch prefetch and served offload.

:class:`repro.batch.BulkReasoner` and
:class:`repro.serve.server.ReasoningServer` both fan cold closures out
over a ``ProcessPoolExecutor``; both submit :func:`solve`.  A task
carries the session's pickled :class:`~repro.core.plan.CompiledPlan`
(which rebuilds the encoding's tables on unpickle, so workers never
re-encode Σ) and the left-hand side as a plain ``int`` mask.

Unpickling the plan is the expensive part, so each worker memoises
plans per ``(epoch, generation)`` key (bounded, LRU).  The key makes a
stale plan impossible rather than unlikely:

* the *epoch* is minted per plan owner from the process-wide
  :data:`EPOCHS` — a served session opening (never its name: a name
  re-opened after close/eviction/``replace`` restarts at generation 0)
  or a :class:`~repro.batch.BulkReasoner`;
* the *generation* changes with every Σ revision of that owner.

A Σ edit therefore only changes the key of the next task; the pool
itself stays warm.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict

from ..obs import InMemorySink, Observer, install
from .closure import closure_of_masks_instrumented
from .engine import closure_of_masks_fast
from .plan import CompiledPlan

__all__ = ["EPOCHS", "EpochMint", "init_worker", "solve"]


class EpochMint:
    """Mints plan-owner epochs; ``reserve`` lets recovery jump the mint
    past every epoch it restored from disk, so an owner created after a
    restart can never collide with a restored one in a worker's memo."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 1

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    def reserve(self, floor: int) -> None:
        self._next = max(self._next, floor)


#: Process-wide, so epochs stay unique across every owner that could
#: share a pool.
EPOCHS = EpochMint()

#: Worker-side memo of unpickled plans, keyed by ``(epoch, generation)``.
_PLANS: OrderedDict[tuple[int, int], CompiledPlan] = OrderedDict()

#: How many plans one worker keeps warm.
MEMO_LIMIT = 8


def init_worker() -> None:
    """Pool initializer: start each worker with an empty plan memo.

    A forked worker inherits the parent's module state; clearing it
    keeps the memo's contents to plans this pool actually shipped.
    """
    _PLANS.clear()


def solve(key: tuple[int, int], plan_blob: bytes, mask: int,
          span: str | None = None
          ) -> tuple[int, int, frozenset[int], int, tuple, int, tuple]:
    """Run the worklist kernel for one LHS mask in a worker process.

    ``plan_blob`` is only unpickled on a memo miss for ``key``.  Returns
    ``(mask, X⁺, blocks, passes, fired, kernel_ns, spans)``: ``fired``
    is the kernel's provenance in the FDs-then-MVDs index order
    :meth:`~repro.core.session.Session.seed` expects, ``kernel_ns`` the
    kernel's wall time.  With ``span`` set, the run is traced by a
    worker-local observer under a span of that name, and the finished
    span records travel back as plain dicts for the parent to
    :meth:`~repro.obs.Observer.adopt` — worker-side timing, parent-side
    parenting.  Otherwise ``spans`` is empty and no observer is touched.
    """
    plan = _PLANS.get(key)
    if plan is None:
        plan = pickle.loads(plan_blob)
        _PLANS[key] = plan
        while len(_PLANS) > MEMO_LIMIT:
            _PLANS.popitem(last=False)
    else:
        _PLANS.move_to_end(key)
    fired: set[int] = set()
    if span is None:
        started = time.monotonic_ns()
        closure_mask, blocks, passes = closure_of_masks_fast(
            plan, mask, fired=fired)
        kernel_ns = time.monotonic_ns() - started
        spans: tuple = ()
    else:
        sink = InMemorySink()
        with install(Observer([sink])) as observer:
            with observer.span(span, lhs=format(mask, "#x"),
                               pid=os.getpid()):
                started = time.monotonic_ns()
                closure_mask, blocks, passes = closure_of_masks_instrumented(
                    plan, mask, fired=fired)
                kernel_ns = time.monotonic_ns() - started
        spans = tuple(sink.spans)
    return (mask, closure_mask, blocks, passes, tuple(sorted(fired)),
            kernel_ns, spans)
