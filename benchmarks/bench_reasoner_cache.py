"""E19 — query throughput: stateless API vs a caching Session.

Algorithm 5.1 answers *every* question about one left-hand side in a
single run; applications firing many queries against a fixed Σ should
pay for that run once.  This experiment measures a 60-query workload
(the kind a 4NF checker or an interactive design session produces)
through the stateless `implies` and through a `Session`, which memoises
one Algorithm 5.1 run per left-hand side, driven by the command registry.

Expected shape: the session wins by roughly the ratio of queries to
distinct left-hand sides.

Run:  pytest benchmarks/bench_reasoner_cache.py --benchmark-only
"""

import pytest

from repro import Schema
from repro.core import commands, implies
from repro.core.session import Session


def ask(session, dependency):
    return commands.execute(
        commands.Implies(dependency=dependency), session).value


@pytest.fixture(scope="module")
def workload():
    schema = Schema(
        "Gene(Acc, Exons[Exon(Start, End)], Expr[Meas(Tissue, Level)], "
        "Curation(Src, Conf))"
    )
    sigma = schema.dependencies(
        "Gene(Acc) -> Gene(Exons[Exon(Start, End)])",
        "Gene(Acc) ->> Gene(Expr[Meas(Level)])",
        "Gene(Curation(Src)) -> Gene(Curation(Conf))",
    )
    lhss = ["Gene(Acc)", "Gene(Curation(Src))", "Gene(Exons[λ])"]
    rhss = [
        "Gene(Exons[λ])",
        "Gene(Expr[λ])",
        "Gene(Expr[Meas(Level)])",
        "Gene(Curation(Conf))",
        "Gene(Acc, Curation(Src, Conf))",
    ]
    queries = []
    for lhs in lhss:
        for rhs in rhss:
            queries.append(f"{lhs} -> {rhs}")
            queries.append(f"{lhs} ->> {rhs}")
            queries.append(f"{lhs} ->> {lhs}")
            queries.append(f"{lhs} -> {lhs}")
    return schema, sigma, queries  # 60 queries over 3 distinct LHSs


def test_stateless_queries(benchmark, workload):
    schema, sigma, queries = workload
    parsed = [schema.dependency(text) for text in queries]

    def run():
        return sum(
            implies(sigma, dependency, encoding=schema.encoding)
            for dependency in parsed
        )

    answered = benchmark(run)
    assert 0 < answered < len(parsed)


def test_reasoner_cached_queries(benchmark, workload):
    schema, sigma, queries = workload
    parsed = [schema.dependency(text) for text in queries]

    def run():
        # cold cache every round
        session = Session(schema.root, sigma, encoding=schema.encoding)
        return sum(ask(session, dependency) for dependency in parsed)

    answered = benchmark(run)
    assert 0 < answered < len(parsed)


def test_agreement_between_apis(benchmark, workload):
    schema, sigma, queries = workload
    parsed = [schema.dependency(text) for text in queries]
    session = Session(schema.root, sigma, encoding=schema.encoding)

    def verdicts():
        return [
            (
                ask(session, dependency),
                implies(sigma, dependency, encoding=schema.encoding),
            )
            for dependency in parsed
        ]

    pairs = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    assert all(cached == stateless for cached, stateless in pairs)
