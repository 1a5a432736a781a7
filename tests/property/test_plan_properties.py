"""Property tests for the compiled plan and the closure-interval cache.

Three families of laws back the plan subsystem:

* the **closure operator laws** (extensive, monotone, idempotent) — the
  exact algebraic facts the interval rule ``X' ≤ X ≤ X'⁺ ⇒ X⁺ = X'⁺``
  is derived from, so they are pinned here on random ``(root, Σ)``;
* **plan transparency** — the kernel over a compiled plan is
  bit-identical to the naive transcription (which takes Σ as given) on
  ``(X⁺, DB)``, for arbitrary Σ including exact duplicates and for raw
  ``X``, ``U`` and ``V`` masks that are not down-closed, and its
  provenance is exact: Σ cut down to the dependencies in ``fired``
  reaches the same fixpoint;
* **interval answers are real answers** — every ``closure_mask_for``
  from a lived-in session equals a cold kernel run;
* **delta maintenance is invisible** — a plan edited in place through
  any add/retract sequence (re-adds, FDs added behind live MVDs, exact
  duplicates) fires exactly like a fresh compile of the same Σ: same
  ``(X⁺, DB, passes)``, same provenance; and a recompile of it pickles
  byte-identically to a fresh compile;
* **cold-start dismissal is exact** — a cold run, which accounts the
  L5 no-op firings of uncovered dependencies in bulk, equals the same
  run with an all-zero LHS index, which dismisses nothing and fires
  the full queue one by one: same ``(X⁺, DB, passes)``, provenance and
  every :class:`KernelStats` counter, on fresh and delta-edited plans,
  whose LHS and RHS indexes hold exactly the live positions.
"""

from __future__ import annotations

import pickle

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.attributes import BasisEncoding
from repro.core import Session
from repro.core.closure import _as_mask_sigma, closure_of_masks
from repro.core.engine import KernelStats, closure_of_masks_fast
from repro.core.plan import compile_plan

from tests.strategies import nested_attributes, roots_with_sigma


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


@settings(max_examples=100, deadline=None)
@given(nested_attributes(max_basis=7), st.data())
def test_raw_masks_match_the_naive_kernel(root, data):
    # Masks that are not down-closed are not elements, but both kernels
    # accept them; their X^C can fail to be CC-closed, the one case in
    # which the worklist kernel's suspects path does any work.
    encoding = BasisEncoding(root)
    masks = st.integers(min_value=0, max_value=encoding.full)
    pairs = st.lists(st.tuples(masks, masks), max_size=4)
    fd_masks = data.draw(pairs)
    mvd_masks = data.draw(pairs)
    x = data.draw(masks)
    naive = closure_of_masks(encoding, x, fd_masks, mvd_masks)
    planned = closure_of_masks_fast(compile_plan(encoding, fd_masks,
                                                 mvd_masks), x)
    assert planned[:2] == naive[:2]             # (X⁺, DB)


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


def _assert_fires_like(plan, fresh, encoding, data):
    """``plan`` and ``fresh`` agree on random ``X``: ``(X⁺, DB, passes)``
    and the ``fired`` provenance, once ``plan``'s slots are mapped back
    to FDs-then-MVDs indices."""
    for _ in range(2):
        x = encoding.down_close(
            data.draw(st.integers(min_value=0, max_value=encoding.full))
        )
        got_fired: set[int] = set()
        want_fired: set[int] = set()
        got = closure_of_masks_fast(plan, x, fired=got_fired)
        want = closure_of_masks_fast(fresh, x, fired=want_fired)
        assert got == want, format(x, "#x")
        assert plan.sigma_indices(got_fired) == want_fired


@settings(max_examples=60, deadline=None)
@given(roots_with_sigma(max_dependencies=8), st.data())
def test_session_plan_edits_match_a_fresh_compile(root_encoding_sigma,
                                                  data):
    root, encoding, sigma = root_encoding_sigma
    pool = list(sigma)
    assume(pool)
    # Start from some MVDs only, so later FD adds land in front of them.
    start = [d for d in pool if not d.is_fd and data.draw(st.booleans())]
    session = Session(root, start, encoding=encoding)
    session.plan
    for _ in range(data.draw(st.integers(min_value=1, max_value=16))):
        member = data.draw(st.sampled_from(pool))
        if member in session:
            session.retract(member)
        else:
            session.add(member)                     # re-adds included
        members = session.dependencies
        ordered = ([d for d in members if d.is_fd]
                   + [d for d in members if not d.is_fd])
        fresh = compile_plan(encoding, *_sigma_masks(encoding, members))
        for _ in range(2):
            x = encoding.down_close(
                data.draw(st.integers(min_value=0, max_value=encoding.full))
            )
            session.cache_clear()                   # a cold run
            got = session.result_for_mask(x)
            want_fired: set[int] = set()
            want = closure_of_masks_fast(fresh, x, fired=want_fired)
            assert (got.closure_mask, got.blocks, got.passes) == want
            assert ({ordered[i] for i in got.fired}
                    == {ordered[i] for i in want_fired})

    session._retire_plan()                          # force a recompile
    fresh = compile_plan(encoding,
                         *_sigma_masks(encoding, session.dependencies))
    assert (pickle.dumps(session.plan, protocol=pickle.HIGHEST_PROTOCOL)
            == pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL))


@settings(max_examples=60, deadline=None)
@given(roots_with_sigma(max_dependencies=5), st.data())
def test_plan_deltas_fold_duplicates_like_a_compile(root_encoding_sigma,
                                                    data):
    root, encoding, sigma = root_encoding_sigma
    fd_masks, mvd_masks = _sigma_masks(encoding, sigma)
    keys = ([(u, v, True) for u, v in fd_masks]
            + [(u, v, False) for u, v in mvd_masks])
    assume(keys)
    plan = compile_plan(encoding, fd_masks, mvd_masks)
    live = dict(enumerate(keys))        # slot -> key, in slot order
    for _ in range(data.draw(st.integers(min_value=1, max_value=16))):
        if live and data.draw(st.booleans()):
            slot = data.draw(st.sampled_from(sorted(live)))
            del live[slot]
            if not plan.retract(slot):
                # The plan asked for a recompile, which renumbers slots.
                order = ([k for k in live.values() if k[2]]
                         + [k for k in live.values() if not k[2]])
                plan = compile_plan(encoding,
                                    [k[:2] for k in order if k[2]],
                                    [k[:2] for k in order if not k[2]])
                live = dict(enumerate(order))
        else:
            key = data.draw(st.sampled_from(keys))      # duplicates welcome
            live[plan.add(*key)] = key
        slots = ([s for s, k in live.items() if k[2]]
                 + [s for s, k in live.items() if not k[2]])
        fresh = compile_plan(encoding,
                             [live[s][:2] for s in slots if live[s][2]],
                             [live[s][:2] for s in slots if not live[s][2]])
        assert (plan.fd_masks, plan.mvd_masks, len(plan)) == (
            fresh.fd_masks, fresh.mvd_masks, len(fresh))
        for bit in range(encoding.size):
            expected = 0
            for position, key in enumerate(plan.deps):
                if key is not None and (key[0] | key[1]) >> bit & 1:
                    expected |= 1 << position
            assert plan.requeue_masks[bit] == expected, bit
        # Indices compare exactly: a duplicate's provenance names its
        # first live twin, as a compile's ``origin`` does.
        _assert_fires_like(plan, fresh, encoding, data)


def assert_cold_equals_oracle(plan, x):
    """The cold run of ``x`` equals the run that dismisses nothing.

    With ``lhs_index`` all zeros no position is dismissed, so the run
    fires every queued dependency one by one: the reference for the
    cold path's bulk accounting.
    """
    got_stats, want_stats = KernelStats(), KernelStats()
    got_fired: set[int] = set()
    want_fired: set[int] = set()
    got = closure_of_masks_fast(plan, x, stats=got_stats, fired=got_fired)
    lhs_index = plan.lhs_index
    plan.lhs_index = [0] * len(lhs_index)
    try:
        want = closure_of_masks_fast(plan, x, stats=want_stats,
                                     fired=want_fired)
    finally:
        plan.lhs_index = lhs_index
    assert got == want, format(x, "#x")
    assert got_fired == want_fired, format(x, "#x")
    assert got_stats.as_dict() == want_stats.as_dict(), format(x, "#x")


@settings(max_examples=80, deadline=None)
@given(roots_with_sigma(max_dependencies=8), st.data())
def test_cold_dismissal_equals_the_full_queue_oracle(root_encoding_sigma,
                                                     data):
    root, encoding, sigma = root_encoding_sigma
    fd_masks, mvd_masks = _sigma_masks(encoding, sigma)
    keys = ([(u, v, True) for u, v in fd_masks]
            + [(u, v, False) for u, v in mvd_masks])
    # Start from some MVDs only: FD adds then shift the MVD region, and
    # retracts leave tombstones.
    start = [k[:2] for k in keys
             if not k[2] and data.draw(st.booleans())]
    plan = compile_plan(encoding, [], start)
    live = list(range(len(start)))
    edits = data.draw(st.integers(min_value=0, max_value=12)) if keys else 0
    for _ in range(edits):
        if live and data.draw(st.booleans()):
            slot = data.draw(st.sampled_from(live))
            live.remove(slot)
            if not plan.retract(slot):
                break           # a recompile would renumber the slots
        else:
            live.append(plan.add(*data.draw(st.sampled_from(keys))))
    fresh = compile_plan(encoding, fd_masks, mvd_masks)
    for bit in range(encoding.size):
        lhs = rhs = 0
        for position, key in enumerate(plan.deps):
            if key is not None:
                lhs |= (key[0] >> bit & 1) << position
                rhs |= (key[1] >> bit & 1) << position
        assert (plan.lhs_index[bit], plan.rhs_index[bit]) == (lhs, rhs), bit

    def lhs():
        # A member's own LHS makes a productive covered firing likely,
        # with uncovered positions after it in generation 1.
        if keys and data.draw(st.booleans()):
            return data.draw(st.sampled_from(keys))[0]
        return encoding.down_close(
            data.draw(st.integers(min_value=0, max_value=encoding.full)))

    for _ in range(3):
        assert_cold_equals_oracle(plan, lhs())
        assert_cold_equals_oracle(fresh, lhs())
