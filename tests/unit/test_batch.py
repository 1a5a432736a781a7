"""Unit tests for the batch membership API (repro.batch)."""

import pytest

from repro import BulkReasoner, Schema
from repro.attributes import encoding as encoding_module
from repro.attributes import parse_attribute
from repro.batch import implies_all as batch_implies_all
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import FunctionalDependency
from repro.exceptions import NotAnElementError, ReproError
from repro.reasoner import Reasoner

QUERIES = [
    "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
    "Pubcrawl(Visit[Drink(Pub)]) -> Pubcrawl(Person)",
    "Pubcrawl(Visit[λ]) ->> Pubcrawl(Person)",
]


@pytest.fixture()
def schema():
    return Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")


@pytest.fixture()
def sigma(schema):
    return schema.dependencies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")


@pytest.fixture()
def bulk(schema, sigma):
    return BulkReasoner(schema, sigma)


class TestSerialBatch:
    def test_matches_single_query_api(self, bulk, schema, sigma):
        reasoner = Reasoner(schema, sigma)
        assert bulk.implies_all(QUERIES) == [
            reasoner.implies(query) for query in QUERIES
        ]

    def test_one_closure_per_distinct_lhs(self, bulk):
        bulk.implies_all(QUERIES)
        computed, hits = bulk.cache_info()
        assert computed == 3  # Person, Visit[Drink(Pub)], Visit[λ]
        assert hits == 2      # the two repeated Person queries

    def test_second_batch_is_all_hits(self, bulk):
        bulk.implies_all(QUERIES)
        computed, _ = bulk.cache_info()
        bulk.implies_all(QUERIES)
        after_computed, hits = bulk.cache_info()
        assert after_computed == computed
        assert hits == 2 + len(QUERIES)

    def test_closures_for(self, bulk, schema):
        results = bulk.closures_for(["Pubcrawl(Person)", "Pubcrawl(Person)"])
        assert results[0] is results[1]
        assert schema.show(results[0].closure) == "Pubcrawl(Person, Visit[λ])"

    def test_empty_batch(self, bulk):
        assert bulk.implies_all([]) == []

    def test_invalid_query_raises(self, bulk):
        with pytest.raises(ReproError):
            bulk.implies_all(["Pubcrawl(Nope) -> Pubcrawl(Person)"])

    def test_wraps_existing_reasoner(self, schema, sigma):
        reasoner = Reasoner(schema, sigma)
        bulk = BulkReasoner(reasoner)
        bulk.implies_all(QUERIES)
        computed, _ = reasoner.cache_info()
        assert computed == 3  # cache shared, not copied

    def test_cache_clear_passthrough(self, bulk):
        bulk.implies_all(QUERIES)
        bulk.cache_clear()
        assert bulk.cache_info() == (0, 0)

    def test_repr(self, bulk):
        assert "BulkReasoner" in repr(bulk)


class TestValidateOnce:
    """Each side of a batch query is checked against the root at most
    once: a text side is parsed straight to its mask, a member by
    construction, and a parsed side by the session's encode, which falls
    back to ``validate``'s message."""

    @pytest.fixture
    def root_checks(self, monkeypatch, schema):
        calls = []
        for module in (encoding_module, dependency_module):
            original = module.is_subattribute

            def counting(left, right, original=original):
                if right == schema.root:
                    calls.append(left)
                return original(left, right)

            monkeypatch.setattr(module, "is_subattribute", counting)
        return calls

    def test_a_new_fd_query_checks_each_side_once(self, bulk, root_checks):
        # Σ's own member: its sides are encoded, the plan is compiled.
        bulk.implies_all(["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
        before = len(root_checks)
        bulk.implies_all(
            ["Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Visit[λ])"])
        # text sides are parsed to masks: no check against the root
        assert len(root_checks) - before == 0

    def test_a_foreign_side_keeps_the_validate_message(self, bulk, schema):
        outside = parse_attribute("Pubcrawl(Age)")
        inside = schema.attribute("Pubcrawl(Person)")
        foreign = FunctionalDependency(outside, inside)
        with pytest.raises(NotAnElementError) as expected:
            foreign.validate(schema.root)
        with pytest.raises(NotAnElementError) as raised:
            bulk.implies_all([QUERIES[0], foreign])
        assert str(raised.value) == str(expected.value)


class TestFunctionalFacade:
    def test_one_shot(self, schema, sigma, bulk):
        assert batch_implies_all(schema, sigma, QUERIES) == bulk.implies_all(QUERIES)

    def test_accepts_texts(self):
        verdicts = batch_implies_all(
            "R(A, B, C)", ["R(A) -> R(B)", "R(B) -> R(C)"],
            ["R(A) -> R(C)", "R(C) -> R(A)"],
        )
        assert verdicts == [True, False]


class TestBatchObservability:
    """Per-query spans under one batch span."""

    @pytest.fixture()
    def sink(self):
        from repro.obs import InMemorySink

        return InMemorySink()

    def test_serial_batch_emits_per_query_spans(self, schema, sigma, sink):
        from repro.obs import Observer, install

        with install(Observer([sink])):
            verdicts = BulkReasoner(schema, sigma).implies_all(QUERIES)

        [batch] = sink.by_name("batch.implies_all")
        assert batch["attrs"] == {"queries": 5, "distinct_lhs": 3}
        queries = sink.by_name("batch.query")
        assert [q["attrs"]["index"] for q in queries] == [0, 1, 2, 3, 4]
        assert all(q["parent"] == batch["id"] for q in queries)
        assert [q["attrs"]["verdict"] for q in queries] == verdicts
        assert [q["attrs"]["kind"] for q in queries] == \
            ["fd", "mvd", "mvd", "fd", "mvd"]
        # the three computed LHSs nest a reasoner.query -> closure.compute
        # chain under their batch.query span; the two hits do not
        reasoner_spans = sink.by_name("reasoner.query")
        assert len(reasoner_spans) == 3
        assert {r["parent"] for r in reasoner_spans} <= \
            {q["id"] for q in queries}
        assert len(sink.by_name("closure.compute")) == 3

    def test_batch_metrics(self, schema, sigma):
        from repro.obs import Observer, install

        with install(Observer()) as observer:
            BulkReasoner(schema, sigma).implies_all(QUERIES)
            snapshot = observer.metrics.snapshot()
        assert snapshot["counters"]["batch.queries"] == 5
        assert snapshot["counters"]["batch.batches"] == 1
        assert snapshot["counters"]["closure.runs"] == 3
        assert snapshot["histograms"]["batch.fanout"]["max"] == 3

    def test_disabled_observer_records_nothing(self, schema, sigma, sink):
        BulkReasoner(schema, sigma).implies_all(QUERIES)
        assert sink.spans == []
