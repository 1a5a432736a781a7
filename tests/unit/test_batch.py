"""Unit tests for the batch membership API (repro.batch)."""

import pytest

import repro.batch
from repro import BulkReasoner, Schema
from repro.batch import implies_all as batch_implies_all
from repro.exceptions import ReproError
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


class TestFunctionalFacade:
    def test_one_shot(self, schema, sigma, bulk):
        assert batch_implies_all(schema, sigma, QUERIES) == bulk.implies_all(QUERIES)

    def test_accepts_texts(self):
        verdicts = batch_implies_all(
            "R(A, B, C)", ["R(A) -> R(B)", "R(B) -> R(C)"],
            ["R(A) -> R(C)", "R(C) -> R(A)"],
        )
        assert verdicts == [True, False]


class TestParallelBatch:
    def test_pool_matches_serial(self, schema, sigma, monkeypatch):
        # Lower the fan-out threshold so this small batch exercises the
        # real process pool.
        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)
        serial = BulkReasoner(schema, sigma).implies_all(QUERIES)
        parallel = BulkReasoner(schema, sigma, workers=2).implies_all(QUERIES)
        assert parallel == serial

    def test_pool_seeds_the_cache(self, schema, sigma, monkeypatch):
        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)
        bulk = BulkReasoner(schema, sigma, workers=2)
        bulk.implies_all(QUERIES)
        computed, hits = bulk.cache_info()
        assert computed == 3
        # Prefetched results serve every query as a cache hit.
        assert hits == len(QUERIES)

    def test_small_batches_stay_serial(self, schema, sigma):
        # Below the threshold no pool is spawned even with workers set;
        # behaviour is observable through identical verdicts and counters.
        bulk = BulkReasoner(schema, sigma, workers=8)
        assert bulk.implies_all(QUERIES[:2]) == [True, True]
        computed, _ = bulk.cache_info()
        assert computed == 1

    def test_workers_override_per_call(self, schema, sigma, monkeypatch):
        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)
        bulk = BulkReasoner(schema, sigma)
        assert bulk.implies_all(QUERIES, workers=2) == bulk.implies_all(QUERIES)


class TestBatchObservability:
    """Per-query spans, and worker spans merged across the process pool."""

    @pytest.fixture()
    def sink(self):
        from repro.obs import InMemorySink

        return InMemorySink()

    def test_serial_batch_emits_per_query_spans(self, schema, sigma, sink):
        from repro.obs import Observer, install

        with install(Observer([sink])):
            verdicts = BulkReasoner(schema, sigma).implies_all(QUERIES)

        [batch] = sink.by_name("batch.implies_all")
        assert batch["attrs"] == {"queries": 5, "distinct_lhs": 3, "workers": 0}
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

    def test_pool_worker_spans_merge_into_parent(self, schema, sigma, sink,
                                                 monkeypatch):
        from repro.obs import Observer, install, validate_records

        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)
        with install(Observer([sink])):
            BulkReasoner(schema, sigma, workers=2).implies_all(QUERIES)

        [batch] = sink.by_name("batch.implies_all")
        [prefetch] = sink.by_name("batch.prefetch")
        assert prefetch["parent"] == batch["id"]
        assert prefetch["attrs"] == {"pending": 3, "workers": 2,
                                     "parallel": True}

        workers = sink.by_name("batch.worker")
        assert len(workers) == 3  # one per distinct uncached LHS
        assert all(w["parent"] == prefetch["id"] for w in workers)
        assert all(isinstance(w["attrs"]["pid"], int) for w in workers)

        # each worker's closure.compute child was re-parented with it
        worker_ids = {w["id"] for w in workers}
        worker_closures = [
            c for c in sink.by_name("closure.compute")
            if c["parent"] in worker_ids
        ]
        assert len(worker_closures) == 3
        # merged ids are unique and the whole trace stays well-formed
        counts = validate_records(sink.spans)
        assert counts["spans"] == len(sink.spans)

    def test_pool_metrics_count_dispatch(self, schema, sigma, monkeypatch):
        from repro.obs import Observer, install

        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)
        with install(Observer()) as observer:
            BulkReasoner(schema, sigma, workers=2).implies_all(QUERIES)
            counters = observer.metrics.snapshot()["counters"]
        assert counters["batch.pool_dispatches"] == 1
        # worker-side kernel runs happen in the workers; the parent's
        # closure.runs counter only counts local runs (zero here — every
        # query is served from the prefetched cache)
        assert counters.get("closure.runs", 0) == 0


class TestPoolLifecycle:
    """The worker pool is a context-managed resource (shared contract
    with the server): lazy, persistent across batches, never leaked."""

    @pytest.fixture(autouse=True)
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(repro.batch, "_MIN_PARALLEL_LHS", 1)

    def test_context_manager_releases_the_pool(self, schema, sigma):
        with BulkReasoner(schema, sigma, workers=2) as bulk:
            bulk.implies_all(QUERIES)
            assert bulk._pool is not None
        assert bulk._pool is None

    def test_pool_persists_across_batches(self, schema, sigma):
        with BulkReasoner(schema, sigma, workers=2) as bulk:
            bulk.implies_all(QUERIES)
            first = bulk._pool
            bulk.cache_clear()
            bulk.implies_all(QUERIES)
            assert bulk._pool is first  # warmed workers were reused

    def test_shutdown_is_idempotent_and_recoverable(self, schema, sigma):
        bulk = BulkReasoner(schema, sigma, workers=2)
        bulk.implies_all(QUERIES)
        bulk.shutdown()
        bulk.shutdown()
        assert bulk._pool is None
        bulk.cache_clear()
        # the next parallel batch warms a fresh pool transparently
        assert bulk.implies_all(QUERIES) == [True, True, True, False, False]
        bulk.shutdown()

    def test_shutdown_without_pool_is_a_noop(self, schema, sigma):
        BulkReasoner(schema, sigma).shutdown()

    def test_exception_inside_context_still_releases(self, schema, sigma):
        with pytest.raises(ReproError):
            with BulkReasoner(schema, sigma, workers=2) as bulk:
                bulk.implies_all(QUERIES)
                assert bulk._pool is not None
                bulk.implies_all(["Pubcrawl(Nope) -> Pubcrawl(Person)"])
        assert bulk._pool is None

    def test_sigma_edit_keeps_the_warmed_pool(self, schema, sigma):
        edit = "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)"
        with BulkReasoner(schema, sigma, workers=2) as bulk:
            bulk.implies_all(QUERIES)
            warm = bulk._pool
            bulk.reasoner.session.add(edit)
            bulk.cache_clear()
            edited = bulk.implies_all(QUERIES)
            # the edit changes the plan key, not the pool: workers
            # answer from the new plan, never the memoised old one
            assert bulk._pool is warm
        assert edited == [True, True, True, True, True]   # was [..., F, F]

    def test_observer_toggle_keeps_the_warmed_pool(self, schema, sigma):
        from repro.obs import InMemorySink, Observer, install

        with BulkReasoner(schema, sigma, workers=2) as bulk:
            bulk.implies_all(QUERIES)
            plain = bulk._pool
            bulk.cache_clear()
            sink = InMemorySink()
            with install(Observer([sink])):
                bulk.implies_all(QUERIES)
            # span collection is asked for per task
            assert bulk._pool is plain
            assert len(sink.by_name("batch.worker")) == 3
