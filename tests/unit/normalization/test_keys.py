"""Unit tests for superkeys and candidate keys."""

import pytest

from repro.attributes import BasisEncoding, parse_attribute as p, parse_subattribute
from repro.dependencies import DependencySet
from repro.normalization import candidate_keys, is_superkey


def s(text, root):
    return parse_subattribute(text, root)


class TestIsSuperkey:
    def test_root_always_superkey(self):
        root = p("R(A, B)")
        assert is_superkey(DependencySet(root), root)

    def test_fd_makes_superkey(self):
        root = p("R(A, B)")
        sigma = DependencySet.parse(root, ["R(A) -> R(B)"])
        assert is_superkey(sigma, s("R(A)", root))
        assert not is_superkey(sigma, s("R(B)", root))

    def test_mvd_alone_not_superkey(self):
        root = p("R(A, B, C)")
        sigma = DependencySet.parse(root, ["R(A) ->> R(B)"])
        assert not is_superkey(sigma, s("R(A)", root))

    def test_mixed_meet_contributes_to_keys(self):
        # Person ->> pubs makes Person determine the visit length, but the
        # beers/pubs content is still free: not a superkey.
        root = p("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
        sigma = DependencySet.parse(
            root, ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"]
        )
        assert not is_superkey(sigma, s("Pubcrawl(Person)", root))


class TestCandidateKeys:
    def test_no_dependencies_key_is_root(self):
        root = p("R(A, B)")
        keys = candidate_keys(DependencySet(root))
        assert keys == (root,)

    def test_single_fd(self):
        root = p("R(A, B)")
        sigma = DependencySet.parse(root, ["R(A) -> R(B)"])
        keys = candidate_keys(sigma)
        assert keys == (s("R(A)", root),)

    def test_two_alternative_keys(self):
        root = p("R(A, B)")
        sigma = DependencySet.parse(root, ["R(A) -> R(B)", "R(B) -> R(A)"])
        keys = set(candidate_keys(sigma))
        assert keys == {s("R(A)", root), s("R(B)", root)}

    def test_composite_key(self):
        root = p("R(A, B, C)")
        sigma = DependencySet.parse(root, ["R(A, B) -> R(C)"])
        keys = candidate_keys(sigma)
        assert keys == (s("R(A, B)", root),)

    def test_keys_are_minimal(self):
        root = p("R(A, B, C)")
        sigma = DependencySet.parse(root, ["R(A) -> R(B, C)"])
        keys = candidate_keys(sigma)
        # R(A) is a key; R(A, B) must not be reported.
        assert keys == (s("R(A)", root),)

    def test_list_length_participates_in_keys(self):
        # The visit content (given the person) needs the beer list itself;
        # the key search must dig into list components.
        root = p("R(A, L[B])")
        sigma = DependencySet.parse(root, ["R(L[B]) -> R(A)"])
        keys = candidate_keys(sigma)
        assert keys == (s("R(L[B])", root),)

    def test_sigma_is_compiled_once_per_search(self):
        from repro.obs import Observer, install

        root = p("R(A, B, C, D)")
        sigma = DependencySet.parse(root, ["R(A) -> R(B)", "R(B) -> R(C)",
                                           "R(C, D) ->> R(A)"])
        with install(Observer()) as observer:
            keys = candidate_keys(sigma)
            counters = observer.metrics.snapshot()["counters"]
        assert keys == (s("R(A, D)", root),)
        assert counters["closure.runs"] > 1     # many closures asked ...
        assert counters["plan.compiles"] == 1   # ... of one compiled Σ

    def test_generator_budget_respected(self):
        root = p("R(A, B, C, D, E)")
        sigma = DependencySet(root)  # only the root itself is a key
        keys = candidate_keys(sigma, max_generators=2)
        assert keys == ()  # needs 5 generators, beyond the budget

    def test_encoding_reuse(self):
        root = p("R(A, B)")
        enc = BasisEncoding(root)
        sigma = DependencySet.parse(root, ["R(A) -> R(B)"])
        assert candidate_keys(sigma, encoding=enc) == (s("R(A)", root),)
