"""Unit tests for parsing the paper's attribute notation."""

import pytest

from repro.attributes import (
    NULL,
    Flat,
    ListAttr,
    Record,
    parse_attribute,
    parse_subattribute,
    unparse,
)
from repro.exceptions import AmbiguousAbbreviationError, AttributeSyntaxError


class TestParseAttribute:
    def test_lambda(self):
        assert parse_attribute("λ") == NULL
        assert parse_attribute("lambda") == NULL

    def test_flat(self):
        assert parse_attribute("Beer") == Flat("Beer")

    def test_record(self):
        assert parse_attribute("Drink(Beer, Pub)") == Record(
            "Drink", (Flat("Beer"), Flat("Pub"))
        )

    def test_list(self):
        assert parse_attribute("Visit[Drink(Beer, Pub)]") == ListAttr(
            "Visit", Record("Drink", (Flat("Beer"), Flat("Pub")))
        )

    def test_deep_nesting(self):
        text = "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))"
        attribute = parse_attribute(text)
        assert unparse(attribute) == text

    def test_whitespace_insensitive(self):
        assert parse_attribute(" R( A ,  L [ B ] ) ") == parse_attribute("R(A, L[B])")

    def test_explicit_lambda_components(self):
        assert parse_attribute("R(A, λ)") == Record("R", (Flat("A"), NULL))

    def test_roundtrip_through_unparse(self, small_roots):
        for root in small_roots:
            assert parse_attribute(unparse(root)) == root

    @pytest.mark.parametrize(
        "bad",
        ["", "R(", "R()", "R(A,)", "R(A))", "[A]", "R(A B)", "R(A,,B)", "A!", "λ(A)"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(AttributeSyntaxError):
            parse_attribute(bad)

    def test_trailing_garbage(self):
        with pytest.raises(AttributeSyntaxError):
            parse_attribute("R(A) extra")


class TestParseSubattribute:
    def test_full_positional_form(self):
        root = parse_attribute("R(A, B)")
        assert parse_subattribute("R(A, λ)", root) == Record("R", (Flat("A"), NULL))

    def test_abbreviated_form_fills_bottoms(self):
        root = parse_attribute("L1(A, B, L2[L3(C, D)])")
        resolved = parse_subattribute("L1(A, L2[λ])", root)
        assert unparse(resolved) == "L1(A, λ, L2[L3(λ, λ)])"

    def test_bare_lambda_is_bottom(self):
        root = parse_attribute("R(A, B)")
        assert parse_subattribute("λ", root) == Record("R", (NULL, NULL))
        list_root = parse_attribute("L[A]")
        assert parse_subattribute("λ", list_root) == NULL

    def test_list_inner_lambda(self):
        root = parse_attribute("Visit[Drink(Beer, Pub)]")
        resolved = parse_subattribute("Visit[λ]", root)
        assert unparse(resolved) == "Visit[Drink(λ, λ)]"

    def test_head_matching_reorders(self):
        root = parse_attribute("R(A, B, C)")
        assert parse_subattribute("R(C, A)", root) == parse_subattribute(
            "R(A, λ, C)", root
        )

    def test_ambiguous_duplicate_heads_rejected(self):
        # The paper's L(A) inside L(A, A) example.
        root = parse_attribute("L(A, A)")
        with pytest.raises(AmbiguousAbbreviationError):
            parse_subattribute("L(A)", root)

    def test_duplicate_heads_full_positional_still_works(self):
        root = parse_attribute("L(A, A)")
        assert parse_subattribute("L(A, λ)", root) == Record("L", (Flat("A"), NULL))
        assert parse_subattribute("L(λ, A)", root) == Record("L", (NULL, Flat("A")))

    def test_unknown_head_rejected(self):
        root = parse_attribute("R(A, B)")
        with pytest.raises(AttributeSyntaxError):
            parse_subattribute("R(Z)", root)

    def test_wrong_label_rejected(self):
        root = parse_attribute("R(A, B)")
        with pytest.raises(AttributeSyntaxError):
            parse_subattribute("S(A)", root)

    def test_flat_mismatch_rejected(self):
        with pytest.raises(AttributeSyntaxError):
            parse_subattribute("B", parse_attribute("A"))

    def test_list_label_mismatch_rejected(self):
        with pytest.raises(AttributeSyntaxError):
            parse_subattribute("M[λ]", parse_attribute("L[A]"))

    def test_resolved_is_always_subattribute(self, small_roots):
        from repro.attributes import is_subattribute, subattributes, unparse_abbreviated

        for root in small_roots:
            for element in subattributes(root):
                shown = unparse_abbreviated(element, root)
                resolved = parse_subattribute(shown, root)
                assert resolved == element, (shown, unparse(root))

    def test_example_5_1_inputs_parse(self, example51):
        # The Σ and X of Example 5.1 went through the abbreviated parser;
        # spot-check one side against its explicit form.
        root = example51.root
        u3 = parse_subattribute("L1(L7(F, L8[L9(L10[λ])]))", root)
        # List-valued components bottom out at λ itself (Definition 3.7).
        explicit = parse_attribute("L1(λ, λ, L7(F, L8[L9(λ, L10[λ])], λ))")
        assert u3 == explicit


class TestLambdaPrefixedNames:
    """``lambda`` is λ only as a whole word of the NAME grammar."""

    def test_hyphenated_name(self):
        assert parse_attribute("lambda-x") == Flat("lambda-x")

    def test_underscored_name(self):
        assert parse_attribute("lambda_x") == Flat("lambda_x")

    def test_inside_a_record(self):
        assert parse_attribute("A(lambda-x, B)") == Record(
            "A", (Flat("lambda-x"), Flat("B"))
        )

    def test_bare_lambda_is_still_null(self):
        assert parse_attribute("lambda") == NULL
        assert parse_attribute("R(lambda, B)") == Record("R", (NULL, Flat("B")))

    def test_roundtrip_through_unparse(self):
        for text in ("lambda-x", "lambda_x", "A(lambda-x, B)", "L[lambda-x]"):
            attribute = parse_attribute(text)
            assert unparse(attribute) == text
            assert parse_attribute(unparse(attribute)) == attribute

    def test_abbreviated_against_a_root(self):
        root = parse_attribute("R(lambda-x, B)")
        assert parse_subattribute("R(lambda-x)", root) == Record(
            "R", (Flat("lambda-x"), NULL)
        )
