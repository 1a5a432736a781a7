"""The mask codec of :class:`BasisEncoding`: ``parse`` and ``render``.

``parse(text)`` must equal ``encode(parse_subattribute(text, root))``
for every text, errors included (same type and message), and
``render(mask)`` must equal ``unparse_abbreviated(decode(mask), root)``.
The shapes below are the ones the mask walk cannot decide alone: it
hands them to the structural parser, which stays the definition.
"""

import pytest

from repro.attributes import (
    BasisEncoding,
    parse_attribute,
    parse_subattribute,
    unparse_abbreviated,
)
from repro.attributes import encoding as encoding_module
from repro.core.session import Session
from repro.dependencies.dependency import parse_dependency
from repro.exceptions import AmbiguousAbbreviationError, AttributeSyntaxError


def outcome(function):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


def structural(encoding, text):
    return outcome(lambda: encoding.encode(parse_subattribute(text, encoding.root)))


@pytest.fixture
def handovers(monkeypatch):
    """Texts the mask walk handed to the structural parser."""
    original = encoding_module.parse_subattribute
    calls = []

    def counting(text, root):
        calls.append(text)
        return original(text, root)

    monkeypatch.setattr(encoding_module, "parse_subattribute", counting)
    return calls


# (root, text, whether the walk hands the text over)
SHAPES = [
    # duplicate heads: L(A) inside L(A, A) is ambiguous
    ("L(A, A)", "L(A)", True),
    ("L(A, A)", "L(A, λ)", True),
    ("L(A, A, B)", "L(B)", True),
    # a permutation resolves by heads
    ("R(A, B)", "R(B, A)", False),
    # positional forms: a bare λ needs the full arity, names in place
    ("R(A, B)", "R(λ, B)", False),
    ("R(A, B)", "R(A, lambda)", False),
    ("R(A, B)", "R(λ)", True),
    ("R(A)", "R(λ)", False),
    ("R(A, B)", "R(B, λ)", True),
    ("R(A, B, C)", "R(λ, B)", True),
    # repeated and unknown heads
    ("R(A, B)", "R(A, A)", True),
    ("R(A, B)", "R(C)", True),
    # kinds must match
    ("R(A, L[B])", "R(L)", True),
    ("R(A, L[B])", "R(A[B])", True),
    ("R(A, L[B])", "R(L(B))", True),
    # names that start with "lambda"
    ("R(lambda-x, B)", "R(lambda-x)", False),
    ("R(lambda_x, L[lambda1])", "R(L[lambda1])", False),
    ("R(lambda-x, B)", "R(lambda)", True),
    # bad characters, trailing input, empty text, unclosed brackets
    ("R(A, B)", "R(A$)", True),
    ("R(A, B)", "R(A) B", True),
    ("R(A, B)", "R(A))", True),
    ("R(A, B)", "", True),
    ("R(A, B)", "   ", True),
    ("R(A, B)", "R(A", True),
    ("R(A, L[B])", "R(L[B)", True),
    ("R(A, L[B])", "R(L[B]", True),
    ("R(A, B)", "R(A,)", True),
    ("R(A, B)", "R()", True),
    ("R(A, B)", "λ(", True),
    ("R(A, B)", "R(Ä)", True),
    # the root itself, λ and nesting
    ("R(A, B)", "λ", False),
    ("R(A, B)", "lambda", False),
    ("A", "A", False),
    ("L[λ]", "L[λ]", False),
    ("R(A, L[K(B, C)], M[D])", "R(L[K(C)], M[λ])", False),
    ("R(A, L[K(B, C)], M[D])", "R(L[λ], A)", False),
    ("R(A, L[K(B, C)], M[D])", "R(λ, L[K(λ, C)], λ)", False),
    ("R(A, L[K(B, C)], M[D])", "S(A)", True),
    ("R(A, λ)", "R(A, λ)", False),
]


@pytest.mark.parametrize("root_text, text, handed_over", SHAPES)
def test_mask_parse_matches_the_structural_parse(root_text, text,
                                                 handed_over, handovers):
    encoding = BasisEncoding(parse_attribute(root_text))
    expected = structural(BasisEncoding(encoding.root), text)
    handovers.clear()
    assert outcome(lambda: encoding.parse(text)) == expected
    assert bool(handovers) == handed_over


def test_ambiguity_and_syntax_errors_come_from_the_parser():
    encoding = BasisEncoding(parse_attribute("L(A, A)"))
    with pytest.raises(AmbiguousAbbreviationError):
        encoding.parse("L(A)")
    with pytest.raises(AttributeSyntaxError, match="offset 3"):
        BasisEncoding(parse_attribute("R(A, B)")).parse("R(A$)")


def test_names_no_text_can_spell_are_never_walked(handovers):
    # A programmatic root whose name is not one token of the notation:
    # the parser rejects "1"; the walk must not accept it either.
    from repro.attributes import Flat, Record

    encoding = BasisEncoding(Record("R", (Flat("1"), Flat("B"))))
    assert outcome(lambda: encoding.parse("R(1)")) == structural(
        encoding, "R(1)")
    assert handovers


@pytest.mark.parametrize("arrow, is_fd", [("→", True), ("↠", False),
                                          ("->", True), ("->>", False),
                                          ("-»", False)])
def test_dependency_masks_split_arrows_like_parse_dependency(arrow, is_fd):
    root = parse_attribute("R(A, B, L[C])")
    session = Session(root)
    text = f"R(A) {arrow} R(L[λ])"
    dependency = parse_dependency(text, root)
    encode = session.encoding.encode
    assert session.dependency_masks(text) == (
        is_fd, encode(dependency.lhs), encode(dependency.rhs))


@pytest.mark.parametrize("text", ["R(A) R(B)", "R(A$) -> R(B)",
                                  "R(A) -> R(B", "R(A) ->> ", " -> R(A)"])
def test_dependency_errors_match_parse_dependency(text):
    root = parse_attribute("R(A, B, L[C])")
    assert outcome(lambda: Session(root).dependency_masks(text))[0] != "ok"
    assert outcome(lambda: Session(root).dependency_masks(text)) == outcome(
        lambda: parse_dependency(text, root))


@pytest.mark.parametrize("root_text", [
    "R(A, L[K(B, C)], M[D])", "L(A, A)", "R(A, λ)", "A", "L[λ]",
    "R(A, B, L[M(A, B)])", "L[L[A]]", "R(L(A, A), B)",
])
def test_render_matches_the_printer_on_every_element(root_text):
    root = parse_attribute(root_text)
    encoding = BasisEncoding(root)
    for mask in encoding.all_elements():
        text = encoding.render(mask)
        assert text == unparse_abbreviated(encoding.decode(mask), root)
        assert encoding.parse(text) == mask


def test_node_masks_are_the_minimal_basis_down_sets():
    root = parse_attribute("R(A, L[K(B, M[C])], D)")
    encoding = BasisEncoding(root)
    for index, member in enumerate(encoding.basis):
        # each basis attribute prints as its own text, parsed to its ideal
        assert encoding.parse(encoding.render(encoding.below[index])) == (
            encoding.below[index])
        assert encoding.encode(member) == encoding.below[index]
