"""Batch membership: :class:`repro.core.commands.ImpliesBatch` executed on
a :class:`Session`, one closure per distinct left-hand side, verdicts in
query order."""

import pytest

from repro import Schema
from repro.attributes import encoding as encoding_module
from repro.attributes import parse_attribute
from repro.core import commands
from repro.core.session import Session
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import FunctionalDependency
from repro.exceptions import NotAnElementError, ReproError

QUERIES = [
    "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
    "Pubcrawl(Visit[Drink(Pub)]) -> Pubcrawl(Person)",
    "Pubcrawl(Visit[λ]) ->> Pubcrawl(Person)",
]


def implies_all(session, dependencies):
    """One verdict per query through the registry's ``implies_batch``."""
    batch = commands.ImpliesBatch(dependencies=tuple(dependencies))
    return commands.execute(batch, session).value


@pytest.fixture()
def schema():
    return Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")


@pytest.fixture()
def sigma(schema):
    return schema.dependencies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")


@pytest.fixture()
def session(schema, sigma):
    return Session(schema.root, sigma, encoding=schema.encoding)


class TestSerialBatch:
    def test_matches_single_query_api(self, session, schema, sigma):
        single = Session(schema.root, sigma, encoding=schema.encoding)
        assert implies_all(session, QUERIES) == [
            commands.execute(commands.Implies(dependency=query), single).value
            for query in QUERIES
        ]

    def test_one_closure_per_distinct_lhs(self, session):
        implies_all(session, QUERIES)
        computed, hits = session.cache_info()
        assert computed == 3  # Person, Visit[Drink(Pub)], Visit[λ]
        assert hits == 2      # the two repeated Person queries

    def test_second_batch_is_all_hits(self, session):
        implies_all(session, QUERIES)
        computed, _ = session.cache_info()
        implies_all(session, QUERIES)
        after_computed, hits = session.cache_info()
        assert after_computed == computed
        assert hits == 2 + len(QUERIES)

    def test_closures_for(self, session, schema):
        # the per-LHS results a batch reads are the session's cached ones
        results = [commands.execute(commands.Closure(x="Pubcrawl(Person)"),
                                    session).value for _ in range(2)]
        assert results[0] is results[1]
        assert schema.show(results[0].closure) == "Pubcrawl(Person, Visit[λ])"

    def test_empty_batch(self, session):
        assert implies_all(session, []) == []

    def test_invalid_query_raises(self, session):
        with pytest.raises(ReproError):
            implies_all(session, ["Pubcrawl(Nope) -> Pubcrawl(Person)"])

    def test_wraps_existing_reasoner(self, session):
        # single queries and batches on one session share its cache
        commands.execute(commands.Implies(dependency=QUERIES[0]), session)
        implies_all(session, QUERIES)
        assert session.cache_info() == (3, 3)

    def test_cache_clear_passthrough(self, session):
        implies_all(session, QUERIES)
        session.cache_clear()
        assert session.cache_info() == (0, 0)

    def test_repr(self, session):
        implies_all(session, QUERIES)
        assert "cached=3" in repr(session)


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

    def test_a_new_fd_query_checks_each_side_once(self, session, root_checks):
        # Σ's own member: its sides are encoded, the plan is compiled.
        implies_all(session,
                    ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"])
        before = len(root_checks)
        implies_all(session,
                    ["Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Visit[λ])"])
        # text sides are parsed to masks: no check against the root
        assert len(root_checks) - before == 0

    def test_a_foreign_side_keeps_the_validate_message(self, session, schema):
        outside = parse_attribute("Pubcrawl(Age)")
        inside = schema.attribute("Pubcrawl(Person)")
        foreign = FunctionalDependency(outside, inside)
        with pytest.raises(NotAnElementError) as expected:
            foreign.validate(schema.root)
        with pytest.raises(NotAnElementError) as raised:
            implies_all(session, [QUERIES[0], foreign])
        assert str(raised.value) == str(expected.value)


class TestFunctionalFacade:
    """A fresh session per batch: the one-shot shape."""

    def test_one_shot(self, schema, sigma, session):
        fresh = Session(schema.root, sigma, encoding=schema.encoding)
        assert implies_all(fresh, QUERIES) == implies_all(session, QUERIES)

    def test_accepts_texts(self):
        verdicts = implies_all(
            Session("R(A, B, C)", ["R(A) -> R(B)", "R(B) -> R(C)"]),
            ["R(A) -> R(C)", "R(C) -> R(A)"],
        )
        assert verdicts == [True, False]


class TestBatchObservability:
    """Per-query spans under the batch's ``command.run`` span."""

    @pytest.fixture()
    def sink(self):
        from repro.obs import InMemorySink

        return InMemorySink()

    def test_serial_batch_emits_per_query_spans(self, session, sink):
        from repro.obs import Observer, install

        with install(Observer([sink])):
            verdicts = implies_all(session, QUERIES)

        [run] = sink.by_name("command.run")
        assert run["attrs"]["command"] == "implies_batch"
        queries = sink.by_name("batch.query")
        assert [q["attrs"]["index"] for q in queries] == [0, 1, 2, 3, 4]
        assert all(q["parent"] == run["id"] for q in queries)
        assert [q["attrs"]["verdict"] for q in queries] == verdicts
        assert [q["attrs"]["kind"] for q in queries] == \
            ["fd", "mvd", "mvd", "fd", "mvd"]
        # the three computed LHSs nest a session.query -> closure.compute
        # chain under their batch.query span; the two hits do not
        session_spans = sink.by_name("session.query")
        assert len(session_spans) == 3
        assert {s["parent"] for s in session_spans} <= \
            {q["id"] for q in queries}
        assert len(sink.by_name("closure.compute")) == 3

    def test_batch_metrics(self, session):
        from repro.obs import Observer, install

        with install(Observer()) as observer:
            implies_all(session, QUERIES)
            snapshot = observer.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["session.cache.misses"] == 3
        assert counters["session.cache.hits"] == 2
        assert counters["closure.runs"] == 3

    def test_disabled_observer_records_nothing(self, session, sink):
        implies_all(session, QUERIES)
        assert sink.spans == []
