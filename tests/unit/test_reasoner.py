"""Unit tests for the query-caching Reasoner."""

import pytest

from repro import Schema
from repro.core import implies
from repro.reasoner import Reasoner


@pytest.fixture()
def schema():
    return Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")


@pytest.fixture()
def reasoner(schema):
    sigma = schema.dependencies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
    return Reasoner(schema, sigma)


class TestConstruction:
    def test_accepts_schema_text(self):
        reasoner = Reasoner("R(A, B)", ["R(A) -> R(B)"])
        assert reasoner.implies("R(A) -> R(B)")

    def test_accepts_dependency_texts(self, schema):
        reasoner = Reasoner(
            schema, ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"]
        )
        assert len(reasoner.sigma) == 1


class TestQueries:
    def test_agrees_with_stateless_api(self, reasoner, schema):
        queries = [
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
            "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
            "Pubcrawl(Visit[λ]) ->> Pubcrawl(Person)",
        ]
        for text in queries:
            dependency = schema.dependency(text)
            assert reasoner.implies(dependency) == implies(
                reasoner.sigma, dependency, encoding=schema.encoding
            ), text

    def test_closure_and_basis(self, reasoner, schema):
        closure = reasoner.closure("Pubcrawl(Person)")
        assert schema.show(closure) == "Pubcrawl(Person, Visit[λ])"
        basis = reasoner.dependency_basis("Pubcrawl(Person)")
        assert len(basis) == 4

    def test_is_superkey(self, reasoner):
        assert reasoner.is_superkey("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
        assert not reasoner.is_superkey("Pubcrawl(Person)")

    def test_implied_mvd_rhs_masks_join_closed(self, reasoner, schema):
        # Dep(X) is closed under joins of its generators (Prop. 4.10).
        masks = reasoner.implied_mvd_rhs_masks("Pubcrawl(Person)")
        union = 0
        for mask in masks:
            union |= mask
        assert union == schema.encoding.full


class TestCaching:
    def test_repeated_lhs_hits_cache(self, reasoner):
        reasoner.implies("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        reasoner.implies("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])")
        reasoner.closure("Pubcrawl(Person)")
        computed, hits = reasoner.cache_info()
        assert computed == 1
        assert hits == 2

    def test_distinct_lhs_computed_separately(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        reasoner.closure("Pubcrawl(Visit[λ])")
        computed, _ = reasoner.cache_info()
        assert computed == 2

    def test_equivalent_lhs_texts_share_entries(self, reasoner):
        # Different spellings of the same subattribute hit one entry.
        reasoner.closure("Pubcrawl(Person)")
        reasoner.closure("Pubcrawl(Person, Visit[Drink(λ, λ)])".replace(
            ", Visit[Drink(λ, λ)]", ""))
        computed, hits = reasoner.cache_info()
        assert (computed, hits) == (1, 1)

    def test_repr(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        assert "cached=1" in repr(reasoner)

    def test_cache_info_is_two_tuple_compatible(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        info = reasoner.cache_info()
        assert info == (1, 0)
        computed, hits = info
        assert (computed, hits) == (1, 0)
        assert info.computed == 1 and info.hits == 0

    def test_cache_info_extras(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        info = reasoner.cache_info()
        assert info.evictions == 0
        assert info.maxsize is None
        assert info.kernel.runs == 1
        assert "double_complement" in info.encoding

    def test_cache_clear(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        reasoner.cache_clear()
        info = reasoner.cache_info()
        assert info == (0, 0)
        assert info.kernel.runs == 0
        reasoner.closure("Pubcrawl(Person)")
        assert reasoner.cache_info() == (1, 0)

    def test_cache_clear_can_reach_the_encoding(self, reasoner):
        reasoner.closure("Pubcrawl(Person)")
        reasoner.cache_clear(encoding=True)
        assert reasoner.schema.encoding.cache_info().hit_rate() == 0.0

    def test_describe_stats(self, reasoner):
        reasoner.implies("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        text = reasoner.describe_stats()
        assert "reasoner: computed=1" in text
        assert "kernel:" in text and "encoding:" in text


class TestBoundedCache:
    LHS = ["Pubcrawl(Person)", "Pubcrawl(Visit[λ])",
           "Pubcrawl(Visit[Drink(Beer)])", "Pubcrawl(Visit[Drink(Pub)])"]

    def make(self, schema, maxsize):
        sigma = schema.dependencies(
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        return Reasoner(schema, sigma, maxsize=maxsize)

    def test_eviction_is_lru(self, schema):
        reasoner = self.make(schema, maxsize=2)
        reasoner.closure(self.LHS[0])
        reasoner.closure(self.LHS[1])
        reasoner.closure(self.LHS[0])    # refresh: LHS[1] is now oldest
        reasoner.closure(self.LHS[2])    # evicts LHS[1]
        info = reasoner.cache_info()
        assert info == (2, 1)
        assert info.evictions == 1
        reasoner.closure(self.LHS[0])    # still cached
        assert reasoner.cache_info().hits == 2
        reasoner.closure(self.LHS[1])    # was evicted: recomputed
        assert reasoner.cache_info().evictions == 2

    def test_unbounded_by_default(self, schema):
        reasoner = self.make(schema, maxsize=None)
        for x in self.LHS:
            reasoner.closure(x)
        info = reasoner.cache_info()
        assert info == (len(self.LHS), 0)
        assert info.evictions == 0

    def test_maxsize_one(self, schema):
        reasoner = self.make(schema, maxsize=1)
        for x in self.LHS:
            reasoner.closure(x)
        info = reasoner.cache_info()
        assert info.computed == 1
        assert info.evictions == len(self.LHS) - 1

    def test_invalid_maxsize_rejected(self, schema):
        with pytest.raises(ValueError):
            self.make(schema, maxsize=0)

    def test_results_identical_after_eviction(self, schema):
        bounded = self.make(schema, maxsize=1)
        unbounded = self.make(schema, maxsize=None)
        for x in self.LHS + list(reversed(self.LHS)):
            assert bounded.closure(x) == unbounded.closure(x)
