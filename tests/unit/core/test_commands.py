"""The typed command registry: specs, validation, executor, completeness.

The completeness guard is the point of this module: every surface
(wire protocol, server, clients, CLI, shell, docs) is *derived* from
``repro.core.commands.REGISTRY``, and these tests fail the build the
moment any of them could drift — a wire op without a server handler, a
client without a wrapper, a docs table that was hand-edited.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.core import commands
from repro.core.commands import (
    Command,
    CommandContext,
    CommandParamError,
    Deadline,
    DeadlineExceeded,
    REGISTRY,
)
from repro.core.session import Session
from repro.schema import Schema

DOCS = Path(__file__).resolve().parents[3] / "docs" / "SERVER.md"


def make_session() -> Session:
    schema = Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
    session = Session(schema.root, encoding=schema.encoding)
    session.add(schema.dependency(
        "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"))
    return session


# -- completeness: the registry is the single source of truth --------------


class TestCompleteness:
    def test_protocol_ops_is_exactly_the_wire_set(self):
        from repro.serve import protocol

        assert protocol.OPS == commands.wire_ops()

    def test_every_wire_op_is_registered_and_vice_versa(self):
        wire = commands.wire_ops()
        for name, cls in REGISTRY.items():
            assert (name in wire) == cls.spec.wire
        assert "trace" not in wire  # local-only stays off the wire

    def test_at_least_four_newly_exposed_wire_ops(self):
        assert {"cover", "keys", "check4nf",
                "is_redundant"} <= commands.wire_ops()

    def test_server_binds_all_admin_handlers(self):
        from repro.serve.server import ReasoningServer

        server = ReasoningServer()
        expected = {name for name, cls in REGISTRY.items()
                    if cls.spec.wire and cls.spec.scope == "server"}
        assert set(server._admin_handlers) == expected

    def test_every_session_scope_command_has_a_run_handler(self):
        for name, cls in REGISTRY.items():
            if cls.spec.scope == "session":
                assert cls.run is not Command.run, name

    def test_every_wire_op_has_a_client_wrapper(self):
        from repro.serve.client import _OpsMixin

        wrapper_names = {"close": "close_session"}
        for name in commands.wire_ops():
            method = wrapper_names.get(name, name.replace(".", "_"))
            assert callable(getattr(_OpsMixin, method, None)), name

    def test_every_command_has_docs_and_classification(self):
        for name, cls in REGISTRY.items():
            spec = cls.spec
            assert spec.name == name
            assert spec.summary and spec.usage
            assert spec.cost in ("admin", "edit", "hot", "cold")
            assert spec.scope in ("session", "server")
            if spec.wire:
                assert spec.result, name

    def test_wire_params_all_have_dataclass_fields(self):
        for name, cls in REGISTRY.items():
            declared = {f.name for f in dataclasses.fields(cls)}
            for param in cls.spec.params:
                assert param.name in declared, (name, param.name)

    def test_docs_op_table_matches_the_registry(self):
        from repro.serve.__main__ import committed_table

        committed = committed_table(DOCS.read_text(encoding="utf-8"))
        assert committed is not None, "docs/SERVER.md lost its markers"
        assert committed == commands.op_table(), (
            "docs/SERVER.md op table is stale — regenerate with "
            "`python -m repro.serve --op-table`")

    def test_mutating_commands_are_not_read_only(self):
        for name in ("add", "retract", "open", "close"):
            assert not REGISTRY[name].spec.read_only, name
        for name in ("implies", "implies_batch", "closure", "basis",
                     "cover", "keys", "check4nf", "is_redundant"):
            assert REGISTRY[name].spec.read_only, name

    def test_registry_guard_rejects_duplicate_names(self):
        with pytest.raises(AssertionError, match="duplicate"):
            commands.register(REGISTRY["implies"])


# -- wire validation: exact historical messages ----------------------------


class TestFromWire:
    def test_unknown_and_non_wire_ops_raise_key_error(self):
        with pytest.raises(KeyError):
            commands.from_wire("no_such_op", {})
        with pytest.raises(KeyError):
            commands.from_wire("trace", {"session": "s", "x": "R(A)"})

    @pytest.mark.parametrize("op,params,message", [
        ("implies", {"dependency": "x"}, "'session' must be a string"),
        ("implies", {"session": "s"}, "'dependency' must be a string"),
        ("implies", {"session": "s", "dependency": 7},
         "'dependency' must be a string"),
        ("closure", {"session": "s"}, "'x' must be a string"),
        ("open", {"schema": "R(A)"}, "'name' must be a non-empty string"),
        ("open", {"name": ""}, "'name' must be a non-empty string"),
        ("open", {"name": "s"}, "'schema' must be a string"),
        ("open", {"name": "s", "schema": "R(A)", "dependencies": "nope"},
         "'dependencies' must be a list of strings"),
        ("open", {"name": "s", "schema": "R(A)", "engine": 3},
         "'engine' must be a string"),
        ("implies_batch", {"session": "s", "dependencies": [1]},
         "'dependencies' must be a list of strings"),
    ])
    def test_bad_params_messages_are_pinned(self, op, params, message):
        with pytest.raises(CommandParamError) as caught:
            commands.from_wire(op, params)
        assert str(caught.value) == message

    def test_optional_params_may_be_absent(self):
        opened = commands.from_wire("open", {"name": "s", "schema": "R(A)"})
        assert opened.dependencies == ()
        assert opened.engine is None
        assert opened.replace is False
        metrics = commands.from_wire("metrics", {})
        assert metrics.session is None


# -- retry derivation ------------------------------------------------------


class TestRetrySafe:
    def test_overloaded_is_always_resendable(self):
        for op in commands.wire_ops():
            assert commands.retry_safe(op, "overloaded")

    def test_timeout_resends_read_only_ops_only(self):
        assert commands.retry_safe("implies", "timeout")
        assert commands.retry_safe("cover", "timeout")
        assert not commands.retry_safe("add", "timeout")
        assert not commands.retry_safe("retract", "timeout")
        assert not commands.retry_safe("open", "timeout")

    def test_unknown_op_is_conservatively_mutating(self):
        assert not commands.retry_safe("no_such_op", "timeout")


# -- the executor ----------------------------------------------------------


class TestExecute:
    def test_implies_round_trip(self):
        session = make_session()
        outcome = commands.execute(
            commands.Implies(
                dependency="Pubcrawl(Person) -> Pubcrawl(Visit[λ])"),
            session)
        assert outcome.result == {"implied": True}
        assert outcome.value is True
        assert outcome.mutated is False

    def test_add_reports_mutation_only_when_added(self):
        session = make_session()
        dep = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
        first = commands.execute(commands.Add(dependency=dep), session)
        assert first.mutated and first.result["added"]
        again = commands.execute(commands.Add(dependency=dep), session)
        assert not again.mutated and not again.result["added"]

    def test_observer_records_span_and_counters(self):
        from repro.obs import InMemorySink, Observer, set_observer
        from repro.obs.validate import validate_records

        sink = InMemorySink()
        observer = Observer([sink])
        previous = set_observer(observer)
        try:
            session = make_session()
            commands.execute(commands.Closure(x="Pubcrawl(Person)"), session)
        finally:
            set_observer(previous)
            observer.close()
        spans = [s for s in sink.spans if s["name"] == "command.run"]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["command"] == "closure"
        assert attrs["cost"] == "cold"
        assert attrs["read_only"] is True
        assert attrs["ok"] is True
        counters = observer.metrics.snapshot()["counters"]
        assert counters["command.executed"] == 1
        assert counters["command.closure"] == 1
        assert observer.metrics.snapshot()["histograms"][
            "command.ms"]["count"] == 1
        validate_records(sink.spans)

    def test_errors_tick_the_error_counter_and_mark_the_span(self):
        from repro.obs import InMemorySink, Observer, set_observer

        sink = InMemorySink()
        observer = Observer([sink])
        previous = set_observer(observer)
        try:
            session = make_session()
            with pytest.raises(Exception):
                commands.execute(commands.Implies(dependency="not a dep"),
                                 session)
        finally:
            set_observer(previous)
            observer.close()
        spans = [s for s in sink.spans if s["name"] == "command.run"]
        assert len(spans) == 1
        assert "error" in spans[0]["attrs"]
        assert "ok" not in spans[0]["attrs"]
        counters = observer.metrics.snapshot()["counters"]
        assert counters["command.errors"] == 1
        assert "command.executed" not in counters

    def test_expired_deadline_stops_a_batch(self):
        session = make_session()
        command = commands.ImpliesBatch(dependencies=(
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",))
        ctx = CommandContext(session, Deadline(-1.0))
        with pytest.raises(DeadlineExceeded):
            command.run(ctx)

    def test_deadline_exceeded_is_a_timeout_error(self):
        assert issubclass(DeadlineExceeded, TimeoutError)
        assert issubclass(CommandParamError, ValueError)

    def test_deadline_reads_its_injected_clock(self):
        now = [1e9]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert deadline.remaining() == 5.0
        now[0] += 3.0
        assert deadline.remaining() == 2.0
        assert not deadline.expired
        now[0] += 2.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_read_only_analysis_leaves_the_session_untouched(self):
        session = make_session()
        before = tuple(session.dependencies)
        for cls in (commands.MinimalCover, commands.Keys,
                    commands.Check4NF):
            commands.execute(cls(), session)
        commands.execute(commands.IsRedundant(
            dependency="Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"),
            session)
        assert tuple(session.dependencies) == before

    def test_renderers_expose_exit_codes(self):
        lines, code = commands.Implies.render({"implied": False})
        assert lines == ["not implied"] and code == 1
        lines, code = commands.Check4NF.render(
            {"in_4nf": False, "violations": ["X ->> Y"]})
        assert lines == ["NOT in 4NF", "  violated by: X ->> Y"]
        assert code == 1
        lines, code = commands.MinimalCover.render({"cover": [], "sigma": 0})
        assert lines == ["(empty)"] and code == 0
