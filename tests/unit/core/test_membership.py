"""Unit tests for the membership API (Proposition 4.10 applications)."""

import pytest

from repro.attributes import BasisEncoding, parse_attribute as p, parse_subattribute
from repro.core import (
    analyse,
    closure,
    dependency_basis,
    equivalent,
    implies,
    implies_every,
    is_redundant,
    minimal_cover,
)
from repro.dependencies import DependencySet, parse_dependency


def s(text, root):
    return parse_subattribute(text, root)


@pytest.fixture()
def root():
    return p("R(A, B, C)")


@pytest.fixture()
def sigma(root):
    return DependencySet.parse(root, ["R(A) -> R(B)", "R(B) -> R(C)"])


class TestImplies:
    def test_fd_membership(self, root, sigma):
        assert implies(sigma, parse_dependency("R(A) -> R(C)", root))
        assert not implies(sigma, parse_dependency("R(C) -> R(A)", root))

    def test_mvd_membership(self, root, sigma):
        assert implies(sigma, parse_dependency("R(A) ->> R(B)", root))
        assert implies(sigma, parse_dependency("R(A) ->> R(B, C)", root))

    def test_trivial_dependencies_always_implied(self, root):
        empty = DependencySet(root)
        assert implies(empty, parse_dependency("R(A, B) -> R(A)", root))
        assert implies(empty, parse_dependency("R(A) ->> R(A, B, C)", root))
        assert implies(empty, parse_dependency("R(A) ->> λ", root))

    def test_rejects_foreign_dependency(self, sigma):
        other_root = p("S(A, B)")
        foreign = parse_dependency("S(A) -> S(B)", other_root)
        with pytest.raises(Exception):
            implies(sigma, foreign)

    def test_encoding_reuse(self, root, sigma):
        enc = BasisEncoding(root)
        assert implies(sigma, parse_dependency("R(A) -> R(C)", root), encoding=enc)

    def test_encoding_root_mismatch_rejected(self, sigma):
        wrong = BasisEncoding(p("S(A, B)"))
        with pytest.raises(ValueError):
            implies(sigma, parse_dependency("R(A) -> R(B)", sigma.root), encoding=wrong)


class TestClosureAndBasis:
    def test_closure_function(self, root, sigma):
        assert closure(sigma, s("R(A)", root)) == root

    def test_dependency_basis_function(self, root, sigma):
        basis = dependency_basis(sigma, s("R(A)", root))
        assert set(basis) == {s("R(A)", root), s("R(B)", root), s("R(C)", root)}

    def test_analyse_reuse(self, root, sigma):
        result = analyse(sigma, s("R(A)", root))
        enc = result.encoding
        assert result.implies_fd_rhs(enc.encode(s("R(C)", root)))


class TestImpliesEvery:
    def test_groups_by_lhs(self, root, sigma):
        targets = [
            parse_dependency("R(A) -> R(B)", root),
            parse_dependency("R(A) -> R(C)", root),
            parse_dependency("R(A) ->> R(B, C)", root),
        ]
        assert implies_every(sigma, targets)

    def test_any_failure_fails(self, root, sigma):
        targets = [
            parse_dependency("R(A) -> R(B)", root),
            parse_dependency("R(C) -> R(A)", root),
        ]
        assert not implies_every(sigma, targets)

    def test_empty_targets(self, sigma):
        assert implies_every(sigma, [])

    def test_membership_alias_is_gone(self):
        """``implies_all`` names only the per-query batch API now."""
        import repro
        import repro.core
        import repro.core.membership

        for module in (repro, repro.core, repro.core.membership):
            assert not hasattr(module, "implies_all"), module
            assert "implies_all" not in module.__all__, module

    def test_batch_implies_all_does_not_warn(self, root, sigma):
        """The batch facade is the per-query API and stays silent."""
        import warnings as _warnings

        from repro.batch import implies_all as batch_implies_all
        from repro.schema import Schema

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            verdicts = batch_implies_all(
                Schema(root), [str(d.display(root)) for d in sigma],
                ["R(A) -> R(C)"])
        assert verdicts == [True]


class TestEquivalence:
    def test_reformulated_sets_equivalent(self, root):
        first = DependencySet.parse(root, ["R(A) -> R(B, C)"])
        second = DependencySet.parse(root, ["R(A) -> R(B)", "R(A) -> R(C)"])
        assert equivalent(first, second)

    def test_mvd_and_complement_equivalent(self, root):
        first = DependencySet.parse(root, ["R(A) ->> R(B)"])
        second = DependencySet.parse(root, ["R(A) ->> R(C)"])
        assert equivalent(first, second)

    def test_inequivalent_sets(self, root):
        first = DependencySet.parse(root, ["R(A) -> R(B)"])
        second = DependencySet.parse(root, ["R(B) -> R(A)"])
        assert not equivalent(first, second)

    def test_different_roots_never_equivalent(self, root):
        first = DependencySet(root)
        second = DependencySet(p("S(A, B)"))
        assert not equivalent(first, second)


class TestRedundancyAndCover:
    def test_is_redundant(self, root):
        sigma = DependencySet.parse(
            root, ["R(A) -> R(B)", "R(B) -> R(C)", "R(A) -> R(C)"]
        )
        assert is_redundant(sigma, parse_dependency("R(A) -> R(C)", root))
        assert not is_redundant(sigma, parse_dependency("R(A) -> R(B)", root))

    def test_is_redundant_requires_membership(self, sigma, root):
        with pytest.raises(ValueError):
            is_redundant(sigma, parse_dependency("R(C) -> R(B)", root))

    def test_minimal_cover_drops_derived(self, root):
        sigma = DependencySet.parse(
            root, ["R(A) -> R(B)", "R(B) -> R(C)", "R(A) -> R(C)"]
        )
        cover = minimal_cover(sigma)
        assert len(cover) == 2
        assert equivalent(cover, sigma)

    def test_minimal_cover_of_irredundant_set_is_identity(self, sigma):
        assert set(minimal_cover(sigma)) == set(sigma)

    def test_minimal_cover_with_mvds(self, root):
        sigma = DependencySet.parse(
            root, ["R(A) ->> R(B)", "R(A) ->> R(C)"]  # complements of each other
        )
        cover = minimal_cover(sigma)
        assert len(cover) == 1
        assert equivalent(cover, sigma)
