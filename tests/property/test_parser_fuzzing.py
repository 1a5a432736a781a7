"""Property tests: the parsers never crash, they raise library errors.

Fuzzes arbitrary text (and near-miss mutations of valid notation) into
every textual entry point; the contract is "parse or raise a
:class:`~repro.exceptions.ReproError` subclass", never an arbitrary
exception or a hang.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import parse_attribute, parse_subattribute, unparse
from repro.dependencies import parse_dependency
from repro.exceptions import ReproError
from tests.strategies import nested_attributes

SETTINGS = settings(max_examples=200, deadline=None)

# "lmbd" lets the fuzzer spell ``lambda`` and names that start with it
# (``lambda-x``, ``lambda_1``).
_notation_alphabet = st.text(
    alphabet="ABLR()[]λ,->> aZ19_lmbd",
    max_size=40,
)


@SETTINGS
@given(_notation_alphabet)
def test_parse_attribute_total(text):
    try:
        result = parse_attribute(text)
    except ReproError:
        return
    # Anything accepted must round-trip.
    assert parse_attribute(unparse(result)) == result


@SETTINGS
@given(nested_attributes(max_basis=6), _notation_alphabet)
def test_parse_subattribute_total(root, text):
    try:
        result = parse_subattribute(text, root)
    except ReproError:
        return
    from repro.attributes import is_subattribute

    assert is_subattribute(result, root)


@SETTINGS
@given(nested_attributes(max_basis=6), _notation_alphabet, _notation_alphabet)
def test_parse_dependency_total(root, lhs_text, rhs_text):
    for arrow in ("->", "->>"):
        try:
            dependency = parse_dependency(f"{lhs_text} {arrow} {rhs_text}", root)
        except ReproError:
            continue
        dependency.validate(root)


@SETTINGS
@given(nested_attributes(max_basis=6), st.integers(min_value=0, max_value=30))
def test_mutated_valid_notation(root, position):
    # Damage a valid attribute text at one position; the parser must
    # either still produce an element of Sub(root) or raise cleanly.
    text = unparse(root)
    if position >= len(text):
        return
    damaged = text[:position] + text[position + 1:]
    try:
        result = parse_subattribute(damaged, root)
    except ReproError:
        return
    from repro.attributes import is_subattribute

    assert is_subattribute(result, root)
