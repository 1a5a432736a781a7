"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImplies:
    def test_implied_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "implies", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        )
        assert code == 0
        assert out.strip() == "implied"

    def test_not_implied_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "implies", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
        )
        assert code == 1
        assert out.strip() == "not implied"

    def test_sigma_file(self, capsys, tmp_path):
        sigma_file = tmp_path / "sigma.txt"
        sigma_file.write_text(f"# the example MVD\n{MVD}\n\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "implies", "--schema", SCHEMA,
            "--sigma-file", str(sigma_file),
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
        )
        assert code == 0
        assert "implied" in out

    def test_missing_sigma_file_errors(self, capsys):
        code, _, err = run(
            capsys, "implies", "--schema", SCHEMA,
            "--sigma-file", "/nonexistent/sigma.txt", "λ -> λ",
        )
        assert code == 2
        assert "error:" in err


class TestStatsFlag:
    def test_implies_with_stats(self, capsys):
        code, out, err = run(
            capsys, "implies", "--stats", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        )
        assert code == 0
        assert out.strip() == "implied"
        assert "kernel:" in err and "encoding:" in err

    def test_stats_preserves_exit_code(self, capsys):
        code, out, err = run(
            capsys, "implies", "--stats", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
        )
        assert code == 1
        assert "not implied" in out
        assert "session:" in err

    def test_closure_with_stats(self, capsys):
        code, out, err = run(
            capsys, "closure", "--stats", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person)",
        )
        assert code == 0
        assert out.strip() == "Pubcrawl(Person, Visit[λ])"
        assert "kernel:" in err

    def test_basis_with_stats(self, capsys):
        code, out, err = run(
            capsys, "basis", "--stats", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person)",
        )
        assert code == 0
        assert "Pubcrawl(Visit[Drink(Beer)])" in out
        assert "session: computed=1" in err


class TestQueries:
    def test_closure(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--schema", SCHEMA, "-d", MVD, "Pubcrawl(Person)"
        )
        assert code == 0
        assert out.strip() == "Pubcrawl(Person, Visit[λ])"

    def test_basis(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--schema", SCHEMA, "-d", MVD, "Pubcrawl(Person)"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "Pubcrawl(Visit[Drink(Beer)])" in lines
        assert "Pubcrawl(Visit[Drink(Pub)])" in lines

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--schema", SCHEMA, "-d", MVD, "Pubcrawl(Person)"
        )
        assert code == 0
        assert "Initialisation:" in out
        assert "Final state:" in out


class TestDesignCommands:
    def test_keys(self, capsys):
        code, out, _ = run(capsys, "keys", "--schema", "R(A, B)",
                           "-d", "R(A) -> R(B)")
        assert code == 0
        assert out.strip() == "R(A)"

    def test_check4nf_clean(self, capsys):
        code, out, _ = run(capsys, "check4nf", "--schema", "R(A, B)",
                           "-d", "R(A) -> R(A, B)")
        assert code == 0
        assert "in 4NF" in out

    def test_check4nf_violated(self, capsys):
        code, out, _ = run(capsys, "check4nf", "--schema", "R(A, B, C)",
                           "-d", "R(A) ->> R(B)")
        assert code == 1
        assert "NOT in 4NF" in out
        assert "violated by:" in out

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--schema", SCHEMA, "-d", MVD)
        assert code == 0
        assert "components:" in out
        assert "Pubcrawl(Person, Visit[Drink(Beer)])" in out

    def test_cover(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--schema", "R(A, B, C)",
            "-d", "R(A) -> R(B)", "-d", "R(B) -> R(C)", "-d", "R(A) -> R(C)",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestFiguresAndErrors:
    def test_figures(self, capsys):
        code, out, _ = run(capsys, "figures")
        assert code == 0
        assert "Figure 1" in out and "Final state:" in out

    def test_bad_schema_is_a_clean_error(self, capsys):
        code, _, err = run(capsys, "implies", "--schema", "R(A", "-d", MVD, "x")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_dependency_is_a_clean_error(self, capsys):
        code, _, err = run(
            capsys, "implies", "--schema", "R(A, B)", "-d", "garbage", "R(A) -> R(B)"
        )
        assert code == 2
        assert "error:" in err

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("implies", "closure", "basis", "trace", "keys",
                        "check4nf", "decompose", "cover", "figures"):
            assert command in text


class TestProblemFileCommands:
    @pytest.fixture()
    def problem_path(self, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("R(A, B, C)")
        sigma = schema.dependencies("R(A) ->> R(B)")
        instance = schema.instance([(1, "b1", "c1"), (1, "b2", "c2")])
        path = tmp_path / "problem.json"
        dump_problem(path, Problem(schema, sigma, instance))
        return path

    def test_check_reports_violation(self, capsys, problem_path):
        code, out, _ = run(capsys, "check", str(problem_path))
        assert code == 1
        assert "VIOLATED" in out

    def test_check_clean_instance(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("R(A, B)")
        sigma = schema.dependencies("R(A) -> R(B)")
        instance = schema.instance([(1, "b"), (2, "b")])
        path = tmp_path / "clean.json"
        dump_problem(path, Problem(schema, sigma, instance))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "ok" in out

    def test_chase_completes_instance(self, capsys, problem_path):
        code, out, err = run(capsys, "chase", str(problem_path))
        assert code == 0
        import json

        chased = json.loads(out)
        assert len(chased) == 4  # the full cross product
        assert "added 2 exchange tuple(s)" in err

    def test_chase_failure_is_reported(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("L[A]")
        sigma = schema.dependencies("λ ->> L[λ]")
        instance = schema.instance([(), (3,)])
        path = tmp_path / "erratum.json"
        dump_problem(path, Problem(schema, sigma, instance))
        code, _, err = run(capsys, "chase", str(path))
        assert code == 1
        assert "error:" in err

    def test_problem_file_without_instance(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("R(A, B)")
        path = tmp_path / "empty.json"
        dump_problem(path, Problem(schema, schema.dependencies()))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "no instance" in err

    def test_audit_reports_redundancy(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("R(A, B, C)")
        sigma = schema.dependencies("R(A) -> R(B)")
        instance = schema.instance([(1, "b", "x"), (1, "b", "y")])
        path = tmp_path / "audit.json"
        dump_problem(path, Problem(schema, sigma, instance))
        code, out, _ = run(capsys, "audit", str(path))
        assert code == 1
        assert "π_R(B)" in out

    def test_audit_clean(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("R(A, B)")
        path = tmp_path / "clean_audit.json"
        dump_problem(
            path,
            Problem(schema, schema.dependencies(),
                    schema.instance([(1, 2), (3, 4)])),
        )
        code, out, _ = run(capsys, "audit", str(path))
        assert code == 0
        assert "no redundant occurrences" in out

    def test_figures_dot(self, capsys):
        code, out, _ = run(capsys, "figures", "--dot")
        assert code == 0
        assert out.count("digraph") == 2


class TestObservabilityFlags:
    def test_trace_json_round_trips(self, capsys, tmp_path):
        import json

        from repro.obs import get_observer, validate_trace

        path = tmp_path / "trace.jsonl"
        code, out, _ = run(
            capsys, "implies", "--trace-json", str(path),
            "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        )
        assert code == 0
        assert out.strip() == "implied"
        counts = validate_trace(str(path))
        assert counts["spans"] >= 1
        assert counts["metrics"] == 1
        with path.open(encoding="utf-8") as handle:
            names = [json.loads(line)["name"] for line in handle
                     if '"event": "span"' in line]
        assert "closure.compute" in names
        # the observer was uninstalled afterwards
        assert get_observer().enabled is False

    def test_metrics_flag_prints_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "closure", "--metrics", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person)",
        )
        assert code == 0
        assert "Visit[λ]" in out
        assert "closure.runs = 1" in err
        assert "closure.passes_per_run" in err

    def test_chase_accepts_trace_json(self, capsys, tmp_path):
        import json

        from repro import Schema
        from repro.io import Problem, dump_problem
        from repro.obs import validate_trace

        schema = Schema("R(A, B, C)")
        sigma = schema.dependencies("R(A) ->> R(B)")
        instance = schema.instance([(1, "b1", "c1"), (1, "b2", "c2")])
        problem = tmp_path / "problem.json"
        dump_problem(problem, Problem(schema, sigma, instance))
        trace = tmp_path / "chase.jsonl"
        code, out, _ = run(capsys, "chase", "--trace-json", str(trace),
                           str(problem))
        assert code == 0
        json.loads(out)  # the chased instance is still valid JSON
        counts = validate_trace(str(trace))
        assert counts["spans"] >= 1

    def test_flags_off_leave_observer_untouched(self, capsys):
        from repro.obs import get_observer

        before = get_observer()
        run(capsys, "implies", "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        assert get_observer() is before


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ["worklist", "naive", "reference"])
    def test_engine_flag_accepted(self, capsys, engine):
        code, out, _ = run(
            capsys, "implies", "--engine", engine,
            "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        )
        assert code == 0
        assert out.strip() == "implied"

    def test_unknown_engine_is_a_clean_error(self, capsys):
        code, _, err = run(
            capsys, "implies", "--engine", "quantum",
            "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        )
        assert code == 2
        assert "unknown kernel 'quantum'" in err

    def test_engine_override_does_not_leak(self, capsys):
        from repro.core import get_default_engine

        run(capsys, "implies", "--engine", "naive",
            "--schema", SCHEMA, "-d", MVD,
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        assert get_default_engine().name == "worklist"

    def test_chase_failure_diagnoses_implied_fd(self, capsys, tmp_path):
        from repro import Schema
        from repro.io import Problem, dump_problem

        schema = Schema("L[A]")
        sigma = schema.dependencies("λ ->> L[λ]")
        instance = schema.instance([(), (3,)])
        path = tmp_path / "erratum.json"
        dump_problem(path, Problem(schema, sigma, instance))
        code, _, err = run(capsys, "chase", str(path))
        assert code == 1
        assert "implied by Σ" in err
