"""The text codec's memos on :class:`BasisEncoding`.

``parse`` memoises successful parses by text and ``render`` memoises
every rendering by mask.  A memo hit must answer exactly what the walk
(or the structural parser) answers, a text that raises must raise the
same error on every call without entering the memo, and both memos stay
within ``_memo_maxsize`` by one ``clear()`` when full.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import (
    BasisEncoding,
    parse_attribute,
    parse_subattribute,
    unparse_abbreviated,
)
from repro.attributes.encoding import UNARY_CACHE_MAXSIZE
from repro.attributes.subattribute import subattributes
from repro.core.session import Session
from repro.workloads import random_attribute


def outcome(function):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


def test_parse_is_the_structural_parse_on_a_miss_and_on_a_hit(small_roots):
    for root in small_roots:
        encoding = BasisEncoding(root)
        reference = BasisEncoding(root)
        texts = [unparse_abbreviated(element, root)
                 for element in subattributes(root)]
        for text in texts:
            expected = reference.encode(parse_subattribute(text, root))
            assert encoding.parse(text) == expected
            assert encoding.parse(text) == expected
        hits, misses, size, _ = encoding.codec_info()["parse"]
        assert (hits, misses, size) == (len(texts), len(texts), len(texts))


def test_two_spellings_are_two_entries_with_one_mask():
    encoding = BasisEncoding(parse_attribute("R(A, B)"))
    assert encoding.parse("R(A)") == encoding.parse("R(A, λ)")
    assert encoding.parse("R(B, A)") == encoding.parse("R(A, B)")
    assert encoding.codec_info()["parse"][2] == 4
    assert sorted(set(encoding._parse_memo.values())) == [
        encoding.parse("R(A)"), encoding.full]


@pytest.mark.parametrize("root_text, text", [
    ("R(A, B)", "R(A$)"),
    ("R(A, B)", "R(C)"),
    ("R(A, B)", "R(A"),
    ("R(A, B)", ""),
    ("R(A, B)", "R(A, A)"),
    ("L(A, A)", "L(A)"),
    ("R(A, L[B])", "R(L(B))"),
])
def test_a_bad_text_raises_the_same_error_and_is_not_memoised(root_text,
                                                              text):
    root = parse_attribute(root_text)
    encoding = BasisEncoding(root)
    expected = outcome(lambda: parse_subattribute(text, root))
    assert expected[0] != "ok"
    first = outcome(lambda: encoding.parse(text))
    second = outcome(lambda: encoding.parse(text))
    assert first == second == expected
    assert encoding.codec_info()["parse"][:3] == (0, 2, 0)


def test_the_memos_stay_within_the_bound():
    root = parse_attribute("R(A, B, C, L[D])")
    encoding = BasisEncoding(root)
    encoding._memo_maxsize = 4
    reference = BasisEncoding(root)
    masks = sorted(reference.all_elements())[:10]
    texts = [reference.render(mask) for mask in masks]
    assert len(set(texts)) == 10
    for _ in range(2):
        for mask, text in zip(masks, texts):
            assert encoding.parse(text) == mask
            assert encoding.render(mask) == text
            info = encoding.codec_info()
            assert info["parse"][2] <= 4 and info["render"][2] <= 4


def test_render_is_the_printer_on_a_miss_and_on_a_hit(small_roots):
    for root in small_roots:
        encoding = BasisEncoding(root)
        masks = list(encoding.all_elements())
        for mask in masks:
            expected = unparse_abbreviated(encoding.decode(mask), root)
            assert encoding.render(mask) == expected
            assert encoding.render(mask) == expected
        hits, misses, size, _ = encoding.codec_info()["render"]
        assert (hits, misses, size) == (len(masks), len(masks), len(masks))


def test_long_spellings_are_parsed_but_not_memoised():
    encoding = BasisEncoding(parse_attribute("R(A, B)"))
    padded = "R(" + " " * 64 + "A)"
    assert encoding.parse(padded) == encoding.parse("R(A)")
    assert list(encoding._parse_memo) == ["R(A)"]


def test_a_pickled_encoding_ships_no_memo():
    root = parse_attribute("R(A, L[K(B, C)], M[D])")
    warm = BasisEncoding(root)
    for mask in warm.all_elements():
        warm.parse(warm.render(mask))
    assert warm._parse_memo and warm._render_memo
    shipped = pickle.loads(pickle.dumps(warm))
    assert shipped._parse_memo == {} and shipped._render_memo == {}
    assert len(pickle.dumps(warm)) == len(pickle.dumps(BasisEncoding(root)))


def test_cache_clear_zeroes_codec_info():
    encoding = BasisEncoding(parse_attribute("R(A, B)"))
    encoding.parse("R(A)"), encoding.parse("R(A)")
    encoding.render(encoding.full), encoding.render(encoding.full)
    encoding.cache_clear()
    assert encoding.codec_info() == {"parse": (0, 0, 0, UNARY_CACHE_MAXSIZE),
                              "render": (0, 0, 0, UNARY_CACHE_MAXSIZE)}
    assert list(encoding.cache_info()) == ["double_complement"]


def test_session_cache_info_carries_the_codec_rows():
    session = Session(parse_attribute("R(A, B, C)"), ["R(A) -> R(B)"])
    session.closure("R(A)")
    assert session.cache_info().codec == session.encoding.codec_info()
    session.cache_clear(encoding=True)
    assert session.cache_info().codec["parse"][:3] == (0, 0, 0)


@st.composite
def shared_name_roots(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**24)))
    for _ in range(50):
        root = random_attribute(rng, max_depth=3, shared_names=True)
        if BasisEncoding(root).size <= 8:
            return root
    return random_attribute(rng, max_depth=1, shared_names=True)


@settings(max_examples=60, deadline=None)
@given(shared_name_roots())
def test_every_rendered_element_parses_back_twice(root):
    encoding = BasisEncoding(root)
    for mask in encoding.all_elements():
        text = encoding.render(mask)
        expected = outcome(lambda: encoding.encode(
            parse_subattribute(text, root)))
        assert expected == ("ok", mask)
        assert outcome(lambda: encoding.parse(text)) == expected
        assert outcome(lambda: encoding.parse(text)) == expected
