"""Property tests: bitmask encoding ⇔ structural Definition 3.8 operations.

Two independent implementations of the same algebra — the Birkhoff
bitmask encoding and the structural recursion — must agree everywhere.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import (
    BasisEncoding,
    complement,
    double_complement,
    is_subattribute,
    join,
    meet,
    pseudo_difference,
)
from repro.attributes.basis import is_possessed_by
from repro.workloads.random_schemas import mixed_family
from tests.strategies import roots_with_element_pairs, roots_with_elements

SETTINGS = settings(max_examples=120, deadline=None)

#: perfbench's root shape (|N| = 64), for masks no small root reaches.
MIXED = BasisEncoding(mixed_family(16))


def possessed_by_definition(enc, mask):
    """Definition 4.11 bit by bit: ``{i ∈ mask : above[i] ⊆ mask}``."""
    return sum(1 << i for i in range(enc.size)
               if mask >> i & 1 and not enc.above[i] & ~mask)


@SETTINGS
@given(roots_with_element_pairs())
def test_le_agrees(case):
    root, enc, (x, y) = case
    assert enc.le(x, y) == is_subattribute(enc.decode(x), enc.decode(y))


@SETTINGS
@given(roots_with_element_pairs())
def test_join_agrees(case):
    root, enc, (x, y) = case
    structural = join(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.join(x, y)) == structural


@SETTINGS
@given(roots_with_element_pairs())
def test_meet_agrees(case):
    root, enc, (x, y) = case
    structural = meet(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.meet(x, y)) == structural


@SETTINGS
@given(roots_with_element_pairs())
def test_pseudo_difference_agrees(case):
    root, enc, (x, y) = case
    structural = pseudo_difference(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.pseudo_difference(x, y)) == structural


@SETTINGS
@given(roots_with_elements())
def test_complement_agrees(case):
    root, enc, (x,) = case
    assert enc.decode(enc.complement(x)) == complement(root, enc.decode(x))


@SETTINGS
@given(roots_with_elements())
def test_double_complement_agrees(case):
    root, enc, (x,) = case
    assert enc.decode(enc.double_complement(x)) == double_complement(
        root, enc.decode(x)
    )


@SETTINGS
@given(roots_with_elements())
def test_possessed_agrees(case):
    root, enc, (x,) = case
    element = enc.decode(x)
    for i, b in enumerate(enc.basis):
        assert bool(enc.possessed(x) >> i & 1) == is_possessed_by(root, b, element)


def test_possessed_is_the_definition_on_every_mask(small_roots):
    # every mask, down-closed or not: the set identity holds on all
    for root in small_roots:
        enc = BasisEncoding(root)
        for mask in range(enc.full + 1):
            assert enc.possessed(mask) == possessed_by_definition(enc, mask)


@SETTINGS
@given(st.integers(0, MIXED.full))
def test_possessed_is_the_definition_on_random_masks(mask):
    assert MIXED.possessed(mask) == possessed_by_definition(MIXED, mask)
    element = MIXED.down_close(mask)
    assert MIXED.possessed(element) == possessed_by_definition(MIXED, element)
    complement = MIXED.complement(element)
    assert (MIXED.possessed(complement)
            == possessed_by_definition(MIXED, complement))


@SETTINGS
@given(roots_with_elements())
def test_encode_decode_roundtrip(case):
    root, enc, (x,) = case
    assert enc.encode(enc.decode(x)) == x
