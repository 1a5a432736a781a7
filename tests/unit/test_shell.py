"""Unit tests for the interactive reasoning shell."""

import io

import pytest

from repro.shell import ReasoningShell, run_shell

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"


def drive(*lines):
    output = io.StringIO()
    run_shell(lines, output)
    return output.getvalue()


class TestSessionFlow:
    def test_full_session(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "sigma",
            "implies Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "closure Pubcrawl(Person)",
            "basis Pubcrawl(Person)",
            "keys",
            "check4nf",
            "decompose",
            "quit",
        )
        assert "schema set (|N| = 4)" in out
        assert "Σ now has 1 dependency" in out
        assert "implied" in out
        assert "Pubcrawl(Person, Visit[λ])" in out
        assert "Pubcrawl(Visit[Drink(Beer)])" in out
        assert "NOT in 4NF" in out
        assert "components:" in out

    def test_add_and_drop(self):
        out = drive(
            "schema R(A, B, C)",
            "add R(A) -> R(B)",
            "add R(B) -> R(C)",
            "sigma",
            "drop 0",
            "sigma",
            "implies R(A) -> R(C)",
        )
        assert "Σ now has 2 dependencies" in out
        assert "dropped R(A) -> R(B)" in out
        assert out.count("[0]") == 2  # listed before and after the drop
        assert "not implied" in out

    def test_trace_and_cover(self):
        out = drive(
            "schema R(A, B, C)",
            "add R(A) -> R(B)",
            "add R(B) -> R(C)",
            "add R(A) -> R(C)",
            "cover",
            "trace R(A)",
        )
        assert out.count("->") >= 2
        assert "Initialisation:" in out

    def test_schema_reset_clears_sigma(self):
        out = drive(
            "schema R(A, B)",
            "add R(A) -> R(B)",
            "schema S(A, B)",
            "sigma",
        )
        assert "(Σ is empty)" in out


class TestStats:
    def test_stats_after_queries(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "implies Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "implies Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
            "stats",
            "quit",
        )
        assert "reasoner: computed=1 hits=1" in out
        assert "kernel:   runs=1" in out
        assert "encoding:" in out

    def test_stats_listed_in_help(self):
        assert "stats" in drive("help", "quit")

    def test_stats_requires_schema(self):
        assert "no schema set" in drive("stats", "quit")


class TestRobustness:
    def test_commands_before_schema(self):
        out = drive("implies x -> y", "sigma", "keys")
        assert out.count("no schema set") == 3

    def test_parse_errors_are_messages_not_crashes(self):
        out = drive("schema R(A, B)", "add garbage", "implies also garbage")
        assert out.count("error:") == 2

    def test_unknown_command(self):
        out = drive("schema R(A, B)", "frobnicate")
        assert "unknown command 'frobnicate'" in out

    def test_unknown_command_without_schema_asks_for_one(self):
        # Before a schema exists, anything non-global prompts for one.
        out = drive("frobnicate")
        assert "no schema set" in out

    def test_blank_lines_and_comments_ignored(self):
        out = drive("", "   ", "# a comment", "quit")
        assert "error" not in out

    def test_drop_out_of_range(self):
        out = drive("schema R(A, B)", "drop 7")
        assert "no dependency #7" in out

    def test_help_and_exit(self):
        out = drive("help", "exit")
        assert "commands:" in out

    def test_handle_returns_false_on_quit(self):
        shell = ReasoningShell(io.StringIO())
        assert shell.handle("help")
        assert not shell.handle("quit")


class TestDesignCommands:
    def test_witness(self):
        out = drive(
            "schema R(A, B, C)",
            "add R(A) ->> R(B)",
            "witness R(A)",
        )
        assert "tuples over" in out
        assert "{" in out

    def test_synthesize(self):
        out = drive(
            "schema R(A, B, C)",
            "add R(A) -> R(B)",
            "synthesize",
        )
        assert "synthesized components:" in out
        assert "(key)" in out

    def test_drop_with_garbage_argument(self):
        out = drive("schema R(A, B)", "drop nonsense")
        assert "no dependency #nonsense" in out


class TestTracing:
    def test_trace_on_off_cycle(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "trace on",
            "implies Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "trace off",
        )
        assert "tracing on" in out
        assert "spans recorded)" in out
        # the query between on/off produced at least the reasoner.query
        # and closure.compute spans
        import re

        match = re.search(r"tracing off \((\d+) spans recorded\)", out)
        assert match and int(match.group(1)) >= 2

    def test_trace_on_streams_jsonl(self, tmp_path):
        from repro.obs import validate_trace

        path = tmp_path / "session.jsonl"
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            f"trace on {path}",
            "closure Pubcrawl(Person)",
            "trace off",
        )
        assert f"streaming to {path}" in out
        counts = validate_trace(str(path))
        assert counts["spans"] >= 1
        assert counts["metrics"] == 1

    def test_metrics_command(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "trace on",
            "closure Pubcrawl(Person)",
            "metrics",
            "trace off",
        )
        assert "closure.runs = 1" in out

    def test_metrics_before_trace_on(self):
        out = drive("metrics")
        assert "observability is off" in out

    def test_double_on_and_stray_off(self):
        out = drive("trace on", "trace on", "trace off", "trace off")
        assert "tracing is already on" in out
        assert "tracing is not on" in out

    def test_quit_cleans_up_active_trace(self):
        from repro.obs import get_observer

        out = drive(f"schema {SCHEMA}", "trace on", "quit")
        assert "tracing off" in out  # close() reported on session end
        assert get_observer().enabled is False

    def test_trace_replay_command_still_works(self):
        # "trace <X>" (Algorithm 5.1 replay) must not be shadowed by
        # the "trace on/off" toggles
        out = drive(f"schema {SCHEMA}", f"add {MVD}",
                    "trace Pubcrawl(Person)")
        assert "pass" in out.lower() or "X" in out


class TestIncrementalEditing:
    def test_retract_by_text(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "closure Pubcrawl(Person)",
            f"retract {MVD}",
            "sigma",
        )
        assert "retracted Pubcrawl(Person) ->>" in out
        assert "evicted 1 cached closures" in out
        assert "(Σ is empty)" in out

    def test_retract_non_member_reports_error(self):
        out = drive(
            f"schema {SCHEMA}",
            f"retract {MVD}",
        )
        assert "error: the dependency" in out
        assert "not a member of Σ" in out

    def test_drop_still_works_and_shares_the_session(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "drop 0",
            "sigma",
        )
        assert "dropped Pubcrawl(Person) ->>" in out
        assert "(Σ is empty)" in out

    def test_add_after_query_recomputes(self):
        out = drive(
            f"schema {SCHEMA}",
            f"add {MVD}",
            "closure Pubcrawl(Person)",
            "add Pubcrawl(Visit[λ]) -> Pubcrawl(Person)",
            "closure Pubcrawl(Person)",
            "stats",
        )
        # The add dropped the cached closure: two runs, no hit.
        assert "computed=1 hits=0" in out
        assert "runs=2 " in out
        assert "warm_starts" not in out

    def test_engine_show_and_switch(self):
        out = drive(
            "engine",
            "engine reference",
            f"schema {SCHEMA}",
            f"add {MVD}",
            "implies Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "engine worklist",
            "stats",
        )
        assert "engine: worklist (available:" in out
        assert "engine set to reference" in out
        assert "implied" in out
        assert "engine=worklist" in out

    def test_engine_preference_survives_schema_reset(self):
        out = drive(
            "engine naive",
            f"schema {SCHEMA}",
            "stats",
        )
        assert "engine=naive" in out

    def test_unknown_engine_reports_error(self):
        out = drive("engine quantum")
        assert "error: unknown kernel 'quantum'" in out

    def test_help_mentions_new_commands(self):
        out = drive("help")
        assert "retract <dep>" in out
        assert "engine [name]" in out
