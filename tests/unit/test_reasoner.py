"""Memoised queries on a :class:`Session`, driven through the command
registry as the CLI, the shell and the server drive it: construction,
agreement with the stateless API, the per-left-hand-side cache and its
LRU bound."""

import pytest

from repro import Schema
from repro.core import commands, implies
from repro.core.session import Session


def ask(session, dependency):
    """``Σ ⊨ σ`` through the registry's ``implies`` command."""
    return commands.execute(
        commands.Implies(dependency=dependency), session).value


def closure(session, x):
    """``X⁺`` through the registry's ``closure`` command."""
    return commands.execute(commands.Closure(x=x), session).value.closure


def basis(session, x):
    """``DepB(X)`` through the registry's ``basis`` command."""
    result = commands.execute(commands.Basis(x=x), session).value
    return result.dependency_basis()


@pytest.fixture()
def schema():
    return Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")


@pytest.fixture()
def session(schema):
    sigma = schema.dependencies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
    return Session(schema.root, sigma, encoding=schema.encoding)


class TestConstruction:
    def test_accepts_schema_text(self):
        session = Session("R(A, B)", ["R(A) -> R(B)"])
        assert ask(session, "R(A) -> R(B)")

    def test_accepts_dependency_texts(self, schema):
        session = Session(
            schema.root, ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
            encoding=schema.encoding,
        )
        assert len(session.sigma) == 1


class TestQueries:
    def test_agrees_with_stateless_api(self, session, schema):
        queries = [
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
            "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
            "Pubcrawl(Visit[λ]) ->> Pubcrawl(Person)",
        ]
        for text in queries:
            dependency = schema.dependency(text)
            assert ask(session, dependency) == implies(
                session.sigma, dependency, encoding=schema.encoding
            ), text

    def test_closure_and_basis(self, session, schema):
        assert (schema.show(closure(session, "Pubcrawl(Person)"))
                == "Pubcrawl(Person, Visit[λ])")
        assert len(basis(session, "Pubcrawl(Person)")) == 4

    def test_is_superkey(self, session):
        assert session.is_superkey("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
        assert not session.is_superkey("Pubcrawl(Person)")

    def test_implied_mvd_rhs_masks_join_closed(self, session, schema):
        # Dep(X) is closed under joins of its generators (Prop. 4.10).
        masks = session.implied_mvd_rhs_masks("Pubcrawl(Person)")
        union = 0
        for mask in masks:
            union |= mask
        assert union == schema.encoding.full


class TestCaching:
    def test_repeated_lhs_hits_cache(self, session):
        ask(session, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        ask(session, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])")
        closure(session, "Pubcrawl(Person)")
        computed, hits = session.cache_info()
        assert computed == 1
        assert hits == 2

    def test_distinct_lhs_computed_separately(self, session):
        closure(session, "Pubcrawl(Person)")
        closure(session, "Pubcrawl(Visit[λ])")
        computed, _ = session.cache_info()
        assert computed == 2

    def test_equivalent_lhs_texts_share_entries(self, session, schema):
        # Different spellings of the same subattribute hit one entry.
        closure(session, "Pubcrawl(Person)")
        closure(session, schema.attribute("Pubcrawl(Person)"))
        computed, hits = session.cache_info()
        assert (computed, hits) == (1, 1)

    def test_repr(self, session):
        closure(session, "Pubcrawl(Person)")
        assert "cached=1" in repr(session)

    def test_cache_info_is_two_tuple_compatible(self, session):
        closure(session, "Pubcrawl(Person)")
        info = session.cache_info()
        assert info == (1, 0)
        computed, hits = info
        assert (computed, hits) == (1, 0)
        assert info.computed == 1 and info.hits == 0

    def test_cache_info_extras(self, session):
        closure(session, "Pubcrawl(Person)")
        info = session.cache_info()
        assert info.evictions == 0
        assert info.maxsize is None
        assert info.kernel.runs == 1
        assert "double_complement" in info.encoding

    def test_cache_clear(self, session):
        closure(session, "Pubcrawl(Person)")
        session.cache_clear()
        info = session.cache_info()
        assert info == (0, 0)
        assert info.kernel.runs == 0
        closure(session, "Pubcrawl(Person)")
        assert session.cache_info() == (1, 0)

    def test_cache_clear_can_reach_the_encoding(self, session):
        closure(session, "Pubcrawl(Person)")
        session.cache_clear(encoding=True)
        assert session.encoding.cache_info().hit_rate() == 0.0

    def test_describe_stats(self, session):
        ask(session, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        text = session.describe_stats()
        assert "session: computed=1" in text
        assert "kernel:" in text and "encoding:" in text


class TestBoundedCache:
    LHS = ["Pubcrawl(Person)", "Pubcrawl(Visit[λ])",
           "Pubcrawl(Visit[Drink(Beer)])", "Pubcrawl(Visit[Drink(Pub)])"]

    def make(self, schema, maxsize):
        sigma = schema.dependencies(
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        return Session(schema.root, sigma, encoding=schema.encoding,
                       maxsize=maxsize)

    def test_eviction_is_lru(self, schema):
        session = self.make(schema, maxsize=2)
        closure(session, self.LHS[0])
        closure(session, self.LHS[1])
        closure(session, self.LHS[0])    # refresh: LHS[1] is now oldest
        closure(session, self.LHS[2])    # evicts LHS[1]
        info = session.cache_info()
        assert info == (2, 1)
        assert info.evictions == 1
        closure(session, self.LHS[0])    # still cached
        assert session.cache_info().hits == 2
        closure(session, self.LHS[1])    # was evicted: recomputed
        assert session.cache_info().evictions == 2

    def test_unbounded_by_default(self, schema):
        session = self.make(schema, maxsize=None)
        for x in self.LHS:
            closure(session, x)
        info = session.cache_info()
        assert info == (len(self.LHS), 0)
        assert info.evictions == 0

    def test_maxsize_one(self, schema):
        session = self.make(schema, maxsize=1)
        for x in self.LHS:
            closure(session, x)
        info = session.cache_info()
        assert info.computed == 1
        assert info.evictions == len(self.LHS) - 1

    def test_invalid_maxsize_rejected(self, schema):
        with pytest.raises(ValueError):
            self.make(schema, maxsize=0)

    def test_results_identical_after_eviction(self, schema):
        bounded = self.make(schema, maxsize=1)
        unbounded = self.make(schema, maxsize=None)
        for x in self.LHS + list(reversed(self.LHS)):
            assert closure(bounded, x) == closure(unbounded, x)
