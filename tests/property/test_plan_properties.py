"""Property tests for the compiled plan and the closure-interval cache.

Three families of laws back the plan subsystem:

* the **closure operator laws** (extensive, monotone, idempotent) — the
  exact algebraic facts the interval rule ``X' ≤ X ≤ X'⁺ ⇒ X⁺ = X'⁺``
  is derived from, so they are pinned here on random ``(root, Σ)``;
* **plan transparency** — the kernel over a compiled plan is
  bit-identical to the naive transcription (which takes Σ as given) on
  ``(X⁺, DB)``, for arbitrary Σ including exact duplicates, and its
  provenance is exact: Σ cut down to the dependencies in ``fired``
  reaches the same fixpoint;
* **interval answers are real answers** — every ``closure_mask_for``
  from a lived-in session equals a cold kernel run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Session
from repro.core.closure import _as_mask_sigma, closure_of_masks
from repro.core.engine import closure_of_masks_fast
from repro.core.plan import compile_plan

from tests.strategies import roots_with_sigma


def _sigma_masks(encoding, sigma):
    return _as_mask_sigma(encoding, sigma)


@settings(max_examples=60, deadline=None)
@given(roots_with_sigma(), st.data())
def test_closure_operator_laws(root_encoding_sigma, data):
    root, encoding, sigma = root_encoding_sigma
    plan = compile_plan(encoding, *_sigma_masks(encoding, sigma))

    x = encoding.down_close(
        data.draw(st.integers(min_value=0, max_value=encoding.full))
    )
    y = encoding.down_close(
        data.draw(st.integers(min_value=0, max_value=encoding.full))
    )

    def plus(mask):
        return closure_of_masks_fast(plan, mask)[0]

    x_plus = plus(x)
    assert x & ~x_plus == 0                     # extensive: X ≤ X⁺
    if y & ~x == 0:                             # monotone: Y ≤ X ⇒ Y⁺ ≤ X⁺
        assert plus(y) & ~x_plus == 0
    assert plus(x_plus) == x_plus               # idempotent: X⁺⁺ = X⁺


@settings(max_examples=60, deadline=None)
@given(roots_with_sigma(), st.data())
def test_plan_is_transparent_to_the_kernel(root_encoding_sigma, data):
    root, encoding, sigma = root_encoding_sigma
    fd_masks, mvd_masks = _sigma_masks(encoding, sigma)
    # Inject exact duplicates: folding must not change any output.
    if fd_masks and data.draw(st.booleans()):
        fd_masks = fd_masks + [fd_masks[0]]
    if mvd_masks and data.draw(st.booleans()):
        mvd_masks = mvd_masks + [mvd_masks[-1]]
    plan = compile_plan(encoding, fd_masks, mvd_masks)

    x = encoding.down_close(
        data.draw(st.integers(min_value=0, max_value=encoding.full))
    )
    fired_planned: set[int] = set()
    naive = closure_of_masks(encoding, x, fd_masks, mvd_masks)
    planned = closure_of_masks_fast(plan, x, fired=fired_planned)
    assert planned[:2] == naive[:2]             # (X⁺, DB)
    # Provenance names original indices (duplicates fold to the first).
    # Every other dependency only fired as a no-op, so dropping all of
    # them at once reaches the same fixpoint.
    fds = len(fd_masks)
    kept = closure_of_masks(
        encoding, x,
        [pair for i, pair in enumerate(fd_masks) if i in fired_planned],
        [pair for i, pair in enumerate(mvd_masks)
         if fds + i in fired_planned],
    )
    assert kept[:2] == naive[:2]


@settings(max_examples=40, deadline=None)
@given(roots_with_sigma(), st.data())
def test_session_interval_answers_equal_cold_runs(root_encoding_sigma, data):
    root, encoding, sigma = root_encoding_sigma
    plan = compile_plan(encoding, *_sigma_masks(encoding, sigma))
    session = Session(root, sigma, encoding=encoding)

    masks = [
        encoding.down_close(
            data.draw(st.integers(min_value=0, max_value=encoding.full))
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    # Supersets of earlier queries make interval hits likely; every
    # answer — exact, interval or computed — must equal a cold run.
    for index, mask in enumerate(masks):
        if index and data.draw(st.booleans()):
            mask |= masks[data.draw(st.integers(min_value=0,
                                                max_value=index - 1))]
        cold = closure_of_masks_fast(plan, mask)[0]
        assert session.closure_mask_for(mask) == cold, format(mask, "#x")
    info = session.cache_info()
    answered = (info.hits + info.plan.exact_hits + info.plan.interval_hits
                + info.plan.misses)
    assert answered >= len(masks)   # full-cache hits count too
