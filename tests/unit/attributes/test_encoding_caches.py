"""Unit tests for the BasisEncoding memo caches and pickling support."""

import pickle

import pytest

from repro.attributes import BasisEncoding, parse_attribute
from repro.attributes import lattice
from repro.attributes.basis import is_possessed_by
from repro.attributes.encoding import (
    UNARY_CACHE_MAXSIZE,
    EncodingCacheInfo,
    iter_bits,
)


@pytest.fixture()
def encoding():
    return BasisEncoding(parse_attribute("R(A, L[K(B, C)], M[D])"))


def reference_down_close(encoding, generator_mask):
    result = 0
    for i in iter_bits(generator_mask):
        result |= encoding.below[i]
    return result


class TestDownCloseTables:
    def test_matches_per_bit_reference(self, encoding):
        for mask in range(1 << encoding.size):
            assert encoding.down_close(mask) == reference_down_close(
                encoding, mask), mask

    def test_wide_root_crosses_byte_chunks(self):
        # > 8 basis attributes forces the multi-chunk path.
        names = ", ".join(f"A{i}" for i in range(11))
        encoding = BasisEncoding(parse_attribute(f"R({names}, L[B])"))
        assert encoding.size > 8
        for mask in (encoding.full, 1 << (encoding.size - 1),
                     (1 << 9) | 1, encoding.full >> 3):
            assert encoding.down_close(mask) == reference_down_close(
                encoding, mask)


class TestMemoisation:
    def test_hit_and_miss_counting(self, encoding):
        encoding.cache_clear()
        x = encoding.full >> 1
        encoding.double_complement(x)
        encoding.double_complement(x)
        info = encoding.cache_info()
        hits, misses, size, maxsize = info["double_complement"]
        assert (hits, misses) == (1, 1)
        assert size == 1
        assert maxsize == UNARY_CACHE_MAXSIZE

    def test_direct_operations_count_nothing(self, encoding):
        encoding.cache_clear()
        encoding.pseudo_difference(encoding.full, 1)
        encoding.complement(1)
        encoding.possessed(encoding.full)
        assert set(encoding.cache_info()) == {"double_complement"}
        assert encoding.cache_totals() == (0, 0)

    def test_memoised_values_stay_correct(self, encoding):
        for mask in range(1 << encoding.size):
            first = encoding.double_complement(mask)
            again = encoding.double_complement(mask)
            assert first == again
            assert first == encoding.down_close(encoding.possessed(mask))

    def test_cc_closed_entries_share_the_key(self):
        # > 8 basis attributes, so the masks are not CPython's small ints
        names = ", ".join(f"A{i}" for i in range(11))
        encoding = BasisEncoding(parse_attribute(f"R({names}, L[B])"))
        closed = int(str(encoding.full))  # a fresh int object
        assert encoding.double_complement(closed) is closed
        assert encoding._dc_cache[closed] is closed
        # a basis attribute below the list's element is not CC-closed
        open_mask = int(str(encoding.full & ~(1 << (encoding.size - 1))))
        assert encoding.double_complement(open_mask) != open_mask

    def test_hit_rate(self, encoding):
        encoding.cache_clear()
        assert encoding.cache_info().hit_rate() == 0.0
        encoding.double_complement(0)
        encoding.double_complement(0)
        assert encoding.cache_info().hit_rate() == 0.5

    def test_cache_clear_resets(self, encoding):
        encoding.double_complement(0)
        encoding.cache_clear()
        info = encoding.cache_info()
        assert all(value == (0, 0, 0, value[3]) for value in info.values())
        assert isinstance(info, EncodingCacheInfo)


class TestEviction:
    def test_clear_bounds_the_memo(self, encoding):
        encoding.cache_clear()
        encoding._memo_maxsize = 4
        masks = list(encoding.all_elements())[:10]
        assert len(masks) == 10
        for mask in masks:
            assert (encoding.double_complement(mask)
                    == encoding.down_close(encoding.possessed(mask)))
            assert len(encoding._dc_cache) <= 4
        hits, misses, size, maxsize = encoding.cache_info()["double_complement"]
        assert (hits, misses, maxsize) == (0, 10, 4)
        assert 1 <= size <= 4

    def test_clear_bounds_the_encode_and_decode_memos(self, encoding):
        encoding._memo_maxsize = 4
        masks = list(encoding.all_elements())
        assert len(masks) > 10
        for mask in masks:
            element = encoding.decode(mask)
            assert encoding.encode(element) == mask
            assert len(encoding._encode_cache) <= 4
            assert len(encoding._decode_cache) <= 4
        # a fresh encoding, so every side is an encode miss
        fresh = BasisEncoding(encoding.root)
        fresh._memo_maxsize = 4
        for mask in masks:
            assert fresh.encode(encoding.decode(mask)) == mask
            assert len(fresh._encode_cache) <= 4
        assert fresh.encode(encoding.root) == encoding.full
        assert fresh.decode(0) == encoding.decode(0)

    def test_evicted_entries_recompute_correctly(self, encoding):
        encoding.cache_clear()
        encoding._memo_maxsize = 2
        masks = list(encoding.all_elements())[:5]
        expected = [encoding.down_close(encoding.possessed(m)) for m in masks]
        for _ in range(2):
            assert [encoding.double_complement(m) for m in masks] == expected


class TestDirectOperations:
    """``∸``, ``^C`` and possession are computed without a memo; each one
    must equal the structural operation of :mod:`repro.attributes.lattice`
    on every element of the small roots."""

    def test_complement_and_possession(self, small_roots):
        for root in small_roots:
            encoding = BasisEncoding(root)
            for mask in encoding.all_elements():
                element = encoding.decode(mask)
                assert encoding.complement(mask) == encoding.encode(
                    lattice.complement(root, element))
                assert encoding.possessed(mask) == sum(
                    1 << i for i, b in enumerate(encoding.basis)
                    if is_possessed_by(root, b, element))
                assert encoding.double_complement(mask) == encoding.encode(
                    lattice.double_complement(root, element))

    def test_pseudo_difference(self, small_roots):
        for root in small_roots:
            encoding = BasisEncoding(root)
            elements = [(m, encoding.decode(m))
                        for m in encoding.all_elements()]
            for left, x in elements:
                for right, y in elements:
                    assert encoding.pseudo_difference(left, right) == (
                        encoding.encode(
                            lattice.pseudo_difference(root, x, y)))


class TestPickling:
    def test_encoding_round_trips(self, encoding):
        clone = pickle.loads(pickle.dumps(encoding))
        assert clone.root == encoding.root
        assert clone.size == encoding.size
        assert clone.below == encoding.below
        assert clone.above == encoding.above

    def test_caches_are_not_shipped(self, encoding):
        encoding.double_complement(0)
        clone = pickle.loads(pickle.dumps(encoding))
        hits, misses, size, _ = clone.cache_info()["double_complement"]
        assert (hits, misses, size) == (0, 0, 0)

    def test_codec_table_is_not_shipped(self, encoding):
        encoding.parse("R(A)")
        assert encoding._nodes is not None
        clone = pickle.loads(pickle.dumps(encoding))
        assert clone._nodes is None
        assert clone.parse("R(A)") == encoding.parse("R(A)")

    def test_attribute_classes_round_trip(self):
        root = parse_attribute("R(A, L[K(B, C)], M[D])")
        for node in root.walk():
            assert pickle.loads(pickle.dumps(node)) == node
