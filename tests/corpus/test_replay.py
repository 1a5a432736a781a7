"""Replay the committed regression corpus through all three engines.

Every ``tests/corpus/*.json`` entry bundles a schema, a dependency set
Σ, membership queries with their expected verdicts, and (optionally)
expected closures in abbreviated paper notation.  The entries are
seeded from the paper's worked examples (Figures 3-4, Pubcrawl) and
from hypothesis-style reductions of shapes that have historically been
easy to get wrong (mixed-meet overlaps, worklist requeue chains,
degenerate Σ).

Each query is decided three ways — the worklist kernel over a compiled
plan, the naive kernel, and the structural reference implementation —
and the test asserts bit-identical agreement on ``(X⁺, DB_new)`` *and*
the recorded verdict.  The worklist kernel's ``passes`` (its REPEAT
generations) are pinned per query in :data:`WORKLIST_PASSES`, so a
change to the requeue order cannot pass unnoticed either.  A regression
would have to be introduced several times, in several formalisms, to
slip through.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import compile_plan, compute_closure, reference_closure, \
    reference_dependency_basis
from repro.core.closure import _as_mask_sigma
from repro.schema import Schema

CORPUS_DIR = Path(__file__).resolve().parent
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

#: Worklist ``passes`` per corpus query, in query order — recorded from
#: the kernel before its plan-less requeue scan was removed, when the
#: planned and plan-less runs agreed on every count.
WORKLIST_PASSES = {
    "empty-sigma": [1, 1, 1, 1],
    "example-5-1": [3, 3, 3, 3, 3, 1],
    "fd-chain": [2, 1, 2, 2],
    "mixed-meet": [2, 2, 2, 1],
    "nested-lists-interaction": [2, 2, 2, 2, 2],
    "pubcrawl": [2, 2, 2, 2, 1],
}


def _load(path: Path) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_entry_shape(path):
    entry = _load(path)
    assert entry["name"] == path.stem
    assert entry["source"]
    assert isinstance(entry["sigma"], list)
    assert entry["queries"], "an entry without queries pins nothing"
    for query in entry["queries"]:
        assert set(query) == {"dependency", "expected"}
        assert isinstance(query["expected"], bool)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_three_way_agreement_and_verdicts(path):
    entry = _load(path)
    schema = Schema(entry["schema"])
    encoding = schema.encoding
    sigma = schema.dependencies(*entry["sigma"])
    fd_masks, mvd_masks = _as_mask_sigma(encoding, sigma)
    plan = compile_plan(encoding, fd_masks, mvd_masks)
    assert len(WORKLIST_PASSES[path.stem]) == len(entry["queries"])

    for query, passes in zip(entry["queries"], WORKLIST_PASSES[path.stem]):
        dependency = schema.dependency(query["dependency"])

        worklist = compute_closure(encoding, dependency.lhs, sigma,
                                   kernel="worklist", plan=plan)
        naive = compute_closure(encoding, dependency.lhs, sigma,
                                kernel="naive")
        assert worklist.closure_mask == naive.closure_mask, query
        assert worklist.blocks == naive.blocks, query
        assert worklist.passes == passes, query

        ref_plus, ref_db = reference_closure(schema.root, dependency.lhs, sigma)
        assert encoding.encode(ref_plus) == worklist.closure_mask, query
        assert frozenset(encoding.encode(w) for w in ref_db) == worklist.blocks, query

        ref_basis = reference_dependency_basis(schema.root, dependency.lhs, sigma)
        assert frozenset(encoding.encode(m) for m in ref_basis) == \
            worklist.dependency_basis_masks(), query

        rhs_mask = encoding.encode(dependency.rhs)
        if dependency.is_fd:
            verdict = worklist.implies_fd_rhs(rhs_mask)
        else:
            verdict = worklist.implies_mvd_rhs(rhs_mask)
        assert verdict == query["expected"], query
        assert schema.implies(sigma, query["dependency"]) == query["expected"], query


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_expected_closures(path):
    entry = _load(path)
    schema = Schema(entry["schema"])
    sigma = schema.dependencies(*entry["sigma"])
    for expectation in entry.get("closures", ()):
        closure = schema.closure(sigma, expectation["x"])
        assert schema.show(closure) == expectation["closure"], expectation
