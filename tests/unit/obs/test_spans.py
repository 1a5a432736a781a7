"""Unit tests for spans, the observer, and the install machinery."""

import pytest

from repro.obs import (
    NULL_SPAN,
    InMemorySink,
    Observer,
    get_observer,
    install,
    set_observer,
)


@pytest.fixture()
def sink():
    return InMemorySink()


@pytest.fixture()
def observer(sink):
    return Observer([sink])


class TestSpanLifecycle:
    def test_records_interval_and_attrs(self, observer, sink):
        with observer.span("closure.compute", size=7) as span:
            span.set(passes=2)
        [record] = sink.spans
        assert record["name"] == "closure.compute"
        assert record["parent"] is None
        assert record["attrs"] == {"size": 7, "passes": 2}
        assert 0 <= record["start_ns"] <= record["end_ns"]

    def test_nesting_parents_children(self, observer, sink):
        with observer.span("outer") as outer:
            assert observer.current_span_id() == outer.span_id
            with observer.span("inner"):
                pass
        inner, outer_record = sink.spans  # children finish first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer_record["id"]
        assert outer_record["parent"] is None
        assert observer.current_span_id() is None

    def test_sibling_spans_share_parent(self, observer, sink):
        with observer.span("outer"):
            with observer.span("first"):
                pass
            with observer.span("second"):
                pass
        assert [r["parent"] for r in sink.by_name("first")] == \
            [r["parent"] for r in sink.by_name("second")]

    def test_exception_sets_error_attr_and_unwinds(self, observer, sink):
        with pytest.raises(ValueError):
            with observer.span("outer"):
                with observer.span("inner"):
                    raise ValueError("boom")
        inner = sink.by_name("inner")[0]
        outer = sink.by_name("outer")[0]
        assert inner["attrs"]["error"] == "ValueError"
        assert outer["attrs"]["error"] == "ValueError"
        assert observer.current_span_id() is None

    def test_duration_property(self, observer):
        span = observer.span("outer")
        assert span.duration_ns is None
        span.__exit__(None, None, None)
        assert span.duration_ns >= 0

    def test_ids_are_unique_and_increasing(self, observer, sink):
        for _ in range(3):
            with observer.span("s"):
                pass
        ids = [record["id"] for record in sink.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3


class TestDisabledObserver:
    def test_span_is_null_span(self):
        disabled = Observer(enabled=False)
        assert disabled.span("anything", x=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span.set(anything=1) is NULL_SPAN

    def test_metrics_are_dropped(self):
        disabled = Observer(enabled=False)
        disabled.add("counter")
        disabled.observe("histogram", 1)
        assert len(disabled.metrics) == 0


class TestInstall:
    def test_default_observer_is_disabled(self):
        assert get_observer().enabled is False

    def test_install_swaps_and_restores(self):
        previous = get_observer()
        active = Observer()
        with install(active) as installed:
            assert installed is active
            assert get_observer() is active
        assert get_observer() is previous

    def test_install_restores_after_exception(self):
        previous = get_observer()
        with pytest.raises(RuntimeError):
            with install(Observer()):
                raise RuntimeError
        assert get_observer() is previous

    def test_install_closes_sinks(self, sink):
        with install(Observer([sink])):
            pass
        assert len(sink.metrics) == 1  # close() flushed a final snapshot

    def test_set_observer_none_means_disabled(self):
        previous = set_observer(None)
        try:
            assert get_observer().enabled is False
        finally:
            set_observer(previous)
