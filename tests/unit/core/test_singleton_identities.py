"""The five §6 identities behind the kernel's maximal-singleton and
cold-start paths.

For every encoding, every maximal basis bit ``m`` (singleton block
``below[m]``) and every down-closed ``S``:

* **L1** ``below[m]^CC = below[m]``;
* **L2** ``(below[m] ∸ S)^CC`` is ``λ`` if ``m ∈ S``, else ``below[m]``;
* **L3** ``(S ⊓ below[m])^CC`` is ``below[m]`` if ``m ∈ S``, else ``λ``;
* **L4** ``MaxB(S^CC) = S ∩ MaxB(N)`` (for any mask ``S``).

For every element ``X`` with ``X^C ≠ λ``, at the cold start (``X_new =
X``, ``DB = {below[m] : m ∈ X ∩ MaxB(N)} ∪ {X^C}``), every element
``U ≰ X`` and every element ``V``:

* **L5** ``Ū`` is exactly the one block ``X^C``, and ``Ṽ = V ∸ X^C``
  satisfies ``Ṽ ≤ X``, ``(Ṽ ⊓ X^C)^CC = λ`` and ``(X^C ∸ Ṽ)^CC =
  X^C``: the dependency fires as a no-op.

The worklist kernel (:mod:`repro.core.engine`) relies on L1–L4 to leave
singletons out of FD rewrites and MVD splits, on L5 to dismiss the
cold-start firings of uncovered dependencies in bulk, and on the owner
rule: a bit possessed by ``below[m]`` has ``m`` as its only maximal bit
above, so the singletons' possessed masks are pairwise disjoint.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import BasisEncoding
from repro.attributes.encoding import iter_bits
from repro.workloads import random_attribute


def _check_identities(encoding: BasisEncoding, s: int) -> None:
    dc = encoding.double_complement
    for m in iter_bits(encoding.maximal):
        single = encoding.below[m]
        inside = bool(s >> m & 1)
        assert dc(single) == single, m                              # L1
        assert dc(encoding.pseudo_difference(single, s)) == (
            0 if inside else single), (m, s)                        # L2
        assert dc(s & single) == (single if inside else 0), (m, s)  # L3
    assert encoding.maximal_of(dc(s)) == s & encoding.maximal, s    # L4


def _check_cold_start(encoding: BasisEncoding, x: int,
                      lhs: list[int], rhs: list[int]) -> None:
    """L5 at the cold start of ``x`` for the elements ``lhs`` and ``rhs``."""
    dc = encoding.double_complement
    x_complement = encoding.complement(x)
    if not x_complement:
        return                              # X = N covers every U
    db = {encoding.below[m] for m in iter_bits(x & encoding.maximal)}
    db.add(x_complement)
    for u in lhs:
        candidates = u & ~x
        if candidates:
            owners = {w for w in db if encoding.possessed(w) & candidates}
            assert owners == {x_complement}, (x, u)               # Ū
    for v in rhs:
        v_tilde = encoding.pseudo_difference(v, x_complement)
        assert not v_tilde & ~x, (x, v)                           # Ṽ ≤ X
        assert dc(v_tilde & x_complement) == 0, (x, v)            # MVD
        assert dc(encoding.pseudo_difference(x_complement, v_tilde)) == (
            x_complement), (x, v)                                 # FD


def _check_owner_rule(encoding: BasisEncoding) -> None:
    seen = 0
    for m in iter_bits(encoding.maximal):
        owned = encoding.possessed(encoding.below[m])
        assert owned >> m & 1
        assert not owned & seen                     # pairwise disjoint
        seen |= owned
        for i in iter_bits(owned):
            assert encoding.above[i] & encoding.maximal == 1 << m, (m, i)


def test_identities_on_every_element_of_the_small_roots(small_roots):
    for root in small_roots:
        encoding = BasisEncoding(root)
        _check_owner_rule(encoding)
        for s in encoding.all_elements():
            _check_identities(encoding, s)


def test_l5_on_every_element_of_the_small_roots(small_roots):
    for root in small_roots:
        encoding = BasisEncoding(root)
        elements = list(encoding.all_elements())
        for x in elements:
            _check_cold_start(encoding, x, elements, elements)


def test_l4_holds_for_masks_that_are_not_down_closed(small_roots):
    for root in small_roots:
        encoding = BasisEncoding(root)
        for s in range(min(encoding.full + 1, 1 << 10)):
            assert (encoding.maximal_of(encoding.double_complement(s))
                    == s & encoding.maximal), (root, s)


@st.composite
def shared_name_roots(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**24)))
    for _ in range(50):
        encoding = BasisEncoding(
            random_attribute(rng, max_depth=3, shared_names=True))
        if encoding.size <= 16:
            return encoding
    return BasisEncoding(random_attribute(rng, max_depth=1,
                                          shared_names=True))


@settings(max_examples=150, deadline=None)
@given(shared_name_roots(), st.data())
def test_identities_on_random_shared_name_roots(encoding, data):
    _check_owner_rule(encoding)
    for _ in range(4):
        s = encoding.down_close(
            data.draw(st.integers(min_value=0, max_value=encoding.full)))
        _check_identities(encoding, s)


@settings(max_examples=150, deadline=None)
@given(shared_name_roots(), st.data())
def test_l5_on_random_shared_name_roots(encoding, data):
    def element():
        return encoding.down_close(
            data.draw(st.integers(min_value=0, max_value=encoding.full)))

    for _ in range(4):
        _check_cold_start(encoding, element(),
                          [element() for _ in range(4)],
                          [element() for _ in range(4)])
