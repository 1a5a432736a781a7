"""Unit tests for the shared pool worker (repro.core.worker).

The worker normally runs in pool processes; these tests call it in
process to pin its memo and span contracts directly.
"""

import os
import pickle

import pytest

from repro.attributes import BasisEncoding, parse_attribute
from repro.core import worker
from repro.core.engine import closure_of_masks_fast
from repro.core.plan import compile_plan
from repro.dependencies import parse_dependency


@pytest.fixture(autouse=True)
def empty_memo():
    worker.init_worker()
    yield
    worker.init_worker()


@pytest.fixture()
def plan():
    encoding = BasisEncoding(parse_attribute("R(A, B, C, L[M(D, E)])"))
    fds, mvds = [], []
    for text in ("R(A) -> R(B)", "R(B) -> R(C)", "R(C) ->> R(L[M(D)])"):
        dependency = parse_dependency(text, encoding.root)
        pair = (encoding.encode(dependency.lhs),
                encoding.encode(dependency.rhs))
        (fds if dependency.is_fd else mvds).append(pair)
    return compile_plan(encoding, fds, mvds)


def _blob(plan):
    return pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)


def _a(plan):
    return plan.fd_masks[0][0]


class TestSolve:
    def test_answers_like_the_kernel(self, plan):
        fired: set[int] = set()
        expected = closure_of_masks_fast(plan, _a(plan), fired=fired)
        (mask, closure_mask, blocks, passes, provenance, kernel_ns,
         spans) = worker.solve((1, 1), _blob(plan), _a(plan))
        assert mask == _a(plan)
        assert (closure_mask, blocks, passes) == expected
        assert provenance == tuple(sorted(fired))
        assert kernel_ns >= 0
        assert spans == ()

    def test_memo_hit_does_not_unpickle(self, plan):
        first = worker.solve((1, 1), _blob(plan), _a(plan))
        # An unreadable blob proves the second call never loads it.
        assert worker.solve((1, 1), b"not a pickle", _a(plan))[:5] == \
            first[:5]

    def test_new_generation_loads_its_own_plan(self, plan):
        worker.solve((1, 1), _blob(plan), _a(plan))
        with pytest.raises(pickle.UnpicklingError):
            worker.solve((1, 2), b"not a pickle", _a(plan))

    def test_memo_is_bounded_lru(self, plan):
        blob = _blob(plan)
        for generation in range(worker.MEMO_LIMIT):
            worker.solve((1, generation), blob, _a(plan))
        worker.solve((1, 0), b"", _a(plan))        # refresh the oldest
        worker.solve((2, 0), blob, _a(plan))       # evicts (1, 1)
        assert len(worker._PLANS) == worker.MEMO_LIMIT
        assert (1, 0) in worker._PLANS
        assert (1, 1) not in worker._PLANS

    def test_init_worker_empties_the_memo(self, plan):
        worker.solve((1, 1), _blob(plan), _a(plan))
        worker.init_worker()
        assert not worker._PLANS

    def test_span_collection_returns_worker_spans(self, plan):
        row = worker.solve((1, 1), _blob(plan), _a(plan), span="batch.worker")
        assert row[:5] == worker.solve((1, 1), b"", _a(plan))[:5]
        spans = {span["name"]: span for span in row[6]}
        assert spans["batch.worker"]["attrs"]["pid"] == os.getpid()
        assert spans["batch.worker"]["attrs"]["lhs"] == format(_a(plan), "#x")
        assert spans["closure.compute"]["parent"] == spans["batch.worker"]["id"]


class TestEpochMint:
    def test_next_is_strictly_increasing(self):
        mint = worker.EpochMint()
        assert [mint.next(), mint.next()] == [1, 2]

    def test_reserve_only_moves_forward(self):
        mint = worker.EpochMint()
        mint.reserve(10)
        assert mint.next() == 10
        mint.reserve(3)
        assert mint.next() == 11
