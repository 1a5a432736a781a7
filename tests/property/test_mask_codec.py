"""Property tests: the mask codec is the structural codec, bit for bit.

:meth:`BasisEncoding.parse` walks text straight to a mask and hands
whatever it cannot decide to :func:`parse_subattribute`; on every text
it must give ``encode(parse_subattribute(text, root))`` or raise the
same exception type with the same message.  :meth:`BasisEncoding.render`
must print every down-closed mask as ``unparse_abbreviated(decode(m))``.
The random roots draw from four flat names and four labels, so records
with repeated heads (and equal subterms) are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import (
    BasisEncoding,
    parse_subattribute,
    unparse,
    unparse_abbreviated,
)
from tests.strategies import nested_attributes

SETTINGS = settings(max_examples=300, deadline=None)

# The notation's characters plus a few the tokenizer rejects.
_alphabet = st.text(alphabet="ABCDLMRS()[]λ, lmbda_-$ä", max_size=40)


def _outcome(function):
    try:
        return "ok", function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


def _agree(root, text):
    expected = _outcome(
        lambda: BasisEncoding(root).encode(parse_subattribute(text, root)))
    assert _outcome(lambda: BasisEncoding(root).parse(text)) == expected


@SETTINGS
@given(nested_attributes(max_basis=8), _alphabet)
def test_random_texts(root, text):
    _agree(root, text)


@st.composite
def _element_texts(draw):
    """A root and the text of one of its elements, abbreviated or exact,
    possibly damaged at one position."""
    root = draw(nested_attributes(max_basis=8))
    encoding = BasisEncoding(root)
    mask = encoding.down_close(
        draw(st.integers(min_value=0, max_value=encoding.full)))
    element = encoding.decode(mask)
    text = draw(st.sampled_from([unparse_abbreviated(element, root),
                                 unparse(element)]))
    edit = draw(st.sampled_from(["keep", "delete", "insert", "swap"]))
    if text and edit != "keep":
        position = draw(st.integers(min_value=0, max_value=len(text) - 1))
        if edit == "delete":
            text = text[:position] + text[position + 1:]
        elif edit == "insert":
            text = text[:position] + draw(_alphabet) + text[position:]
        else:
            text = text[:position] + draw(
                st.sampled_from("ABλ,()[] ")) + text[position + 1:]
    return root, text


@SETTINGS
@given(_element_texts())
def test_element_texts_and_mutations(case):
    root, text = case
    _agree(root, text)


@settings(max_examples=150, deadline=None)
@given(nested_attributes(max_basis=7))
def test_render_every_element(root):
    encoding = BasisEncoding(root)
    for mask in encoding.all_elements():
        assert encoding.render(mask) == unparse_abbreviated(
            encoding.decode(mask), root)
