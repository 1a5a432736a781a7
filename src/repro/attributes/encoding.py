"""Bitmask (Birkhoff) encoding of ``Sub(N)`` — the polynomial workhorse.

Section 6 of the paper analyses Algorithm 5.1 under the convention that a
nested attribute is handled "as a set of attributes, i.e. instead of
looking at N we rather use SubB(N)".  This module makes that precise:

Since ``Sub(N)`` is a finite *distributive* lattice (every Brouwerian
algebra is distributive, Section 3.3), Birkhoff's representation theorem
identifies each element ``X ∈ Sub(N)`` with the down-closed set
``SubB(X) = {J ∈ SubB(N) | J ≤ X}`` of join-irreducible basis attributes
below it.  Encoding that set as an ``int`` bitmask over a fixed indexing of
``SubB(N)`` gives:

========================  =============================================
operation                 bitmask realisation
========================  =============================================
``X ≤ Y``                 subset test ``x & ~y == 0``
``X ⊔ Y``                 ``x | y``  (paper: ``SubB(X⊔Y)=SubB(X)∪SubB(Y)``)
``X ⊓ Y``                 ``x & y``  (paper: ``SubB(X⊓Y)=SubB(X)∩SubB(Y)``)
``X ∸ Y``                 down-closure of ``x & ~y``  (paper's §6 snippet)
``X^C``                   ``N ∸ X``
``X^CC``                  down-closure of the basis attributes
                          *possessed* by ``X``
``λ_N``                   ``0``
========================  =============================================

Possession (Definition 4.11 via the §6 characterisation): basis attribute
``i`` is possessed by ``X`` iff ``i ∈ SubB(X)`` and ``i ∉ SubB(X^C)``, so
the possessed bits are one set difference, ``x & ~complement(x)``: one
down-closure (a table OR per byte) instead of a walk over the bits.
(``i ∈ SubB(X^C)`` iff some basis attribute above ``i`` lies outside
``SubB(X)``, since ``below`` and ``above`` are duals.)

Of the Brouwerian operations only ``X^CC`` is memoised: Algorithm 5.1
normalises the same blocks on every pass.  ``X ∸ Y``, ``X^C`` and
possession are computed directly — a down-closure is one table OR per
byte of the mask, cheaper than a memo that cold queries (every one a new
left-hand side) would almost never hit.

Text goes to and from masks without building trees: :meth:`parse`
walks the abbreviated notation over a node table of the root (one entry
per flat, list and record node, each flat or list node carrying the
down-set of its minimal basis attribute) and ORs node masks;
:meth:`render` prints a mask from the same table.  Whatever the walk
cannot decide alone goes to
:func:`~repro.attributes.parser.parse_subattribute`, which stays the
definition of the notation and the only source of its errors.  Under
§6's set representation a text is a pure function of ``(N, mask)``, so
both directions are memoised on the encoding (text → mask for successful
parses only, mask → text for every render) and need no invalidation:
a served session sees the same few texts on every request.

The encoding is cross-checked against the structural implementation in
:mod:`repro.attributes.lattice` by property tests.
"""

from __future__ import annotations

import re
from typing import Iterator

from .basis import basis_poset
from .nested import Flat, ListAttr, NestedAttribute, Record
from .parser import _LAMBDAS, _TOKEN, parse_subattribute
from .printer import LAMBDA
from .subattribute import bottom, is_subattribute, subattributes
from ..exceptions import NotAnElementError

__all__ = ["BasisEncoding", "EncodingCacheInfo", "iter_bits"]

#: Bound of each memo of an encoding (``double_complement``, encode,
#: decode, parse, render).  A memo is emptied in one ``clear()`` when it
#: reaches the bound, so a long-lived encoding (shell sessions, servers)
#: cannot grow without limit and no miss pays for an eviction walk.
UNARY_CACHE_MAXSIZE = 16384


#: The parser's tokens plus any other non-space character, so one
#: ``findall`` splits a text and a bad character becomes a token that no
#: node's name can equal.
_CODEC_TOKEN_RE = re.compile(rf"{_TOKEN}|\S")
#: A name the parser's tokenizer reads as one token.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")

# Node kinds of the text codec's table.
_FLAT, _LIST, _RECORD, _NULL = range(4)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EncodingCacheInfo(dict):
    """Per-operation cache statistics, ``{op: (hits, misses, size, maxsize)}``.

    A plain dict subclass so callers can both index it and print it; the
    ``hit_rate`` helper summarises across operations.
    """

    def hit_rate(self) -> float:
        hits = sum(entry[0] for entry in self.values())
        misses = sum(entry[1] for entry in self.values())
        total = hits + misses
        return hits / total if total else 0.0


class BasisEncoding:
    """The bitmask-encoded subattribute lattice of a fixed root ``N``.

    Parameters
    ----------
    root:
        The nested attribute whose ``Sub(root)`` is being encoded.

    Attributes
    ----------
    root:
        The root attribute ``N``.
    basis:
        ``SubB(N)`` as an indexed tuple; bit ``i`` of a mask stands for
        ``basis[i]``.
    size:
        ``|N| = |SubB(N)|``, the paper's complexity size measure.
    full:
        The mask of ``N`` itself (all bits set).
    below / above:
        Per-index masks of the basis attributes ``≤`` / ``≥`` the indexed
        one (both include the index itself).
    maximal:
        Mask of the maximal basis attributes ``MaxB(N)``.
    """

    __slots__ = (
        "root",
        "basis",
        "size",
        "full",
        "below",
        "above",
        "maximal",
        "_index",
        "_encode_cache",
        "_decode_cache",
        "_down_tables",
        "_dc_cache",
        "_memo_maxsize",
        "_hits",
        "_misses",
        "_nodes",
        "_possessed_below",
        "_parse_memo",
        "_render_memo",
        "_parse_hits",
        "_parse_misses",
        "_render_hits",
        "_render_misses",
    )

    def __init__(self, root: NestedAttribute) -> None:
        self.root = root
        basis_elements, below_lists = basis_poset(root)
        self.basis: tuple[NestedAttribute, ...] = basis_elements
        self.size = len(self.basis)
        self.full = (1 << self.size) - 1
        self._index = {attribute: i for i, attribute in enumerate(self.basis)}

        # The order comes structurally from basis_poset — no pairwise
        # ≤ tests, so construction stays cheap at three-digit |N|.
        self.below = tuple(below_lists)
        above = [0] * self.size
        for j, mask in enumerate(self.below):
            bit = 1 << j
            for i in iter_bits(mask):
                above[i] |= bit
        self.above = tuple(above)

        maximal = 0
        for i in range(self.size):
            if self.above[i] == 1 << i:
                maximal |= 1 << i
        self.maximal = maximal

        self._memo_maxsize = UNARY_CACHE_MAXSIZE
        self._encode_cache: dict[NestedAttribute, int] = {root: self.full}
        self._decode_cache: dict[int, NestedAttribute] = {
            self.full: root,
            0: bottom(root),
        }

        # Byte-chunked down-closure tables: ``_down_tables[c][b]`` is the
        # union of ``below[8c + j]`` over the set bits ``j`` of the byte
        # ``b`` — so a down-closure is one table-OR per non-zero byte of
        # the generator mask instead of a re-entrant per-bit loop.
        tables: list[list[int]] = []
        for chunk_start in range(0, self.size, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                index = chunk_start + low.bit_length() - 1
                prev = table[byte ^ low]
                table[byte] = prev | (
                    self.below[index] if index < self.size else 0
                )
            tables.append(table)
        self._down_tables = tuple(tables)

        # The one memoised Brouwerian operation: Algorithm 5.1 asks for
        # the double complement of the same blocks on every pass.
        self._dc_cache: dict[int, int] = {}
        self._hits = 0
        self._misses = 0
        # The text codec's node table, built by the first parse/render,
        # and its memos (text -> mask, mask -> text).
        self._nodes: tuple | None = None
        self._parse_memo: dict[str, int] = {}
        self._render_memo: dict[int, str] = {}
        self._parse_hits = self._parse_misses = 0
        self._render_hits = self._render_misses = 0
        # possessed(below[i]) per index, built by the first kernel run.
        self._possessed_below: tuple[int, ...] | None = None

    def __reduce__(self):
        # Rebuild from the root on unpickling: the tables are derived
        # data, and the memos are per-process state.
        return (type(self), (self.root,))

    def require_root(self, root: NestedAttribute) -> "BasisEncoding":
        """Assert this encoding was built for ``root``; returns ``self``.

        Raises
        ------
        ValueError
            If the encoding's root differs from ``root``.  Every caller
            that accepts an optional pre-built encoding funnels through
            this check (via :meth:`of`) so the mismatch error is uniform.
        """
        if self.root != root:
            raise ValueError(
                f"encoding root mismatch: the supplied encoding is for "
                f"{self.root}, not {root}"
            )
        return self

    @classmethod
    def of(
        cls, root: NestedAttribute, encoding: "BasisEncoding | None" = None
    ) -> "BasisEncoding":
        """The canonical "optional encoding" entry point.

        Returns ``encoding`` after validating it was built for ``root``,
        or a fresh ``BasisEncoding(root)`` when ``encoding`` is None.
        Centralises the root-vs-encoding mismatch validation previously
        duplicated across ``core.membership``, ``reasoner`` and
        ``batch``.
        """
        if encoding is None:
            return cls(root)
        return encoding.require_root(root)

    # -- conversions -----------------------------------------------------

    def _remember(self, element: NestedAttribute, mask: int) -> None:
        """Memoise ``element ↦ mask``; a full memo restarts from the root
        (bounded like the ``double_complement`` memo)."""
        cache = self._encode_cache
        if len(cache) >= self._memo_maxsize:
            cache.clear()
            cache[self.root] = self.full
        cache[element] = mask

    def encode(self, element: NestedAttribute) -> int:
        """Mask of ``SubB(element)`` for ``element ∈ Sub(root)``.

        Raises
        ------
        NotAnElementError
            If ``element`` is not a subattribute of ``root``.
        """
        cached = self._encode_cache.get(element)
        if cached is not None:
            return cached
        if not is_subattribute(element, self.root):
            raise NotAnElementError(f"{element} is not a subattribute of {self.root}")
        mask = 0
        for i, candidate in enumerate(self.basis):
            if is_subattribute(candidate, element):
                mask |= 1 << i
        self._remember(element, mask)
        return mask

    def decode(self, mask: int) -> NestedAttribute:
        """The element of ``Sub(root)`` whose basis set is ``mask``.

        ``mask`` must be down-closed (every down-closed mask denotes an
        element, by Birkhoff's theorem); non-down-closed masks are
        rejected to catch encoding bugs early.
        """
        cached = self._decode_cache.get(mask)
        if cached is not None:
            return cached
        if not self.is_downclosed(mask):
            raise NotAnElementError(f"mask {mask:#x} is not down-closed in Sub({self.root})")
        from .lattice import join_all  # local import to avoid cycle at import time

        generators = [self.basis[i] for i in iter_bits(self.generators(mask))]
        element = join_all(self.root, generators)
        cache = self._decode_cache
        if len(cache) >= self._memo_maxsize:
            cache.clear()
            cache[self.full] = self.root
            cache[0] = bottom(self.root)
        cache[mask] = element
        self._remember(element, mask)
        return element

    def index_of(self, basis_attribute: NestedAttribute) -> int:
        """The bit index of a basis attribute."""
        try:
            return self._index[basis_attribute]
        except KeyError:
            raise NotAnElementError(
                f"{basis_attribute} is not a basis attribute of {self.root}"
            ) from None

    def principal(self, index: int) -> int:
        """The mask of the basis attribute ``basis[index]`` *as an element*
        (its principal ideal ``below[index]``)."""
        return self.below[index]

    # -- mask structure ----------------------------------------------------

    def down_close(self, generator_mask: int) -> int:
        """Down-closure: union of ``below[i]`` over the set bits.

        Implemented as one precomputed-table OR per non-zero byte of the
        generator mask (see ``_down_tables``), so the cost is
        ``O(size/8)`` table lookups rather than a per-bit loop that
        re-tests coverage after every union.
        """
        result = 0
        tables = self._down_tables
        chunk = 0
        while generator_mask:
            byte = generator_mask & 0xFF
            if byte:
                result |= tables[chunk][byte]
            generator_mask >>= 8
            chunk += 1
        return result

    def is_downclosed(self, mask: int) -> bool:
        """Whether ``mask`` denotes an element (is a down-set)."""
        if mask & ~self.full:
            return False
        for i in iter_bits(mask):
            if self.below[i] & ~mask:
                return False
        return True

    def generators(self, mask: int) -> int:
        """The maximal bits of ``mask`` (minimal generator set)."""
        result = 0
        for i in iter_bits(mask):
            if self.above[i] & mask == 1 << i:
                result |= 1 << i
        return result

    # -- Brouwerian operations on masks -----------------------------------

    @staticmethod
    def join(left: int, right: int) -> int:
        """``X ⊔ Y`` — union of basis sets."""
        return left | right

    @staticmethod
    def meet(left: int, right: int) -> int:
        """``X ⊓ Y`` — intersection of basis sets."""
        return left & right

    @staticmethod
    def le(left: int, right: int) -> bool:
        """``X ≤ Y`` — subset of basis sets."""
        return left & ~right == 0

    def pseudo_difference(self, left: int, right: int) -> int:
        """``X ∸ Y`` — the paper's §6 set recipe.

        Remove ``SubB(Y)`` from ``SubB(X)``, then down-close the survivors
        (every ``A`` kept pulls all of ``SubB(A)`` back in): one table OR
        per byte of the mask, cheaper than a memo lookup on cold work.
        """
        return self.down_close(left & ~right)

    def complement(self, mask: int) -> int:
        """``X^C = N ∸ X``."""
        return self.down_close(self.full & ~mask)

    def double_complement(self, mask: int) -> int:
        """``X^CC`` — down-closure of the basis attributes possessed by X.

        A basis attribute is possessed by ``X`` iff everything above it is
        in ``SubB(X)``; the double complement keeps exactly the possessed
        part, which equals the join of the maximal basis attributes of X.
        Memoised: the memo is emptied in one ``clear()`` when it reaches
        its bound, so a miss never pays for an eviction.
        """
        cache = self._dc_cache
        cached = cache.get(mask)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        result = self.down_close(self.possessed(mask))
        if result == mask:
            # CC-closed (every block after its first pass): the entry
            # shares the key's int instead of holding an equal copy.
            result = mask
        if len(cache) >= self._memo_maxsize:
            cache.clear()
        cache[mask] = result
        return result

    def possessed(self, mask: int) -> int:
        """Mask of the basis attributes *possessed* by the element ``mask``.

        Definition 4.11 / §6: ``i`` possessed iff ``i ∈ SubB(X)`` and
        ``i ∉ SubB(X^C)`` — the set difference ``mask & ~complement(mask)``.
        It equals the per-bit test ``above[i] ⊆ SubB(X)`` on any mask:
        ``i`` lies in the down-closure of the bits outside ``mask``
        exactly when some bit above ``i`` is outside ``mask``.
        """
        return mask & ~self.down_close(self.full & ~mask)

    def possessed_below(self) -> tuple[int, ...]:
        """``possessed(below[i])`` for every index ``i``, built once.

        The kernel asks for the possessed mask of the singleton block
        ``below[m]`` of every maximal bit ``m`` of each element it
        starts from; the table makes that a lookup.
        """
        table = self._possessed_below
        if table is None:
            table = self._possessed_below = tuple(map(self.possessed,
                                                      self.below))
        return table

    # -- cache management --------------------------------------------------

    def cache_info(self) -> EncodingCacheInfo:
        """``{op: (hits, misses, current size, maxsize)}`` for the memo
        of the Brouwerian operations (``double_complement``, the only
        operation that is memoised; the text codec's memos are in
        :meth:`codec_info`)."""
        return EncodingCacheInfo(double_complement=(
            self._hits, self._misses, len(self._dc_cache), self._memo_maxsize))

    def cache_totals(self) -> tuple[int, int]:
        """``(hits, misses)`` of the double-complement memo.

        Cheaper than :meth:`cache_info` for the observability layer,
        which samples the totals around each closure run to attribute
        cache traffic to spans.
        """
        return self._hits, self._misses

    def codec_info(self) -> EncodingCacheInfo:
        """``{op: (hits, misses, current size, maxsize)}`` for the text
        codec's memos: ``parse`` (text → mask) and ``render``
        (mask → text)."""
        maxsize = self._memo_maxsize
        return EncodingCacheInfo(
            parse=(self._parse_hits, self._parse_misses,
                   len(self._parse_memo), maxsize),
            render=(self._render_hits, self._render_misses,
                    len(self._render_memo), maxsize))

    def cache_clear(self) -> None:
        """Drop the operation memo and the codec memos and reset their
        counters (what :meth:`cache_info` and :meth:`codec_info` report).

        The structural tables (``below``/``above``/down-closure tables)
        are kept — they are derived from the root, not from the query
        stream — and so are the encode/decode caches, which bound
        themselves.
        """
        self._dc_cache.clear()
        self._hits = 0
        self._misses = 0
        self._parse_memo.clear()
        self._render_memo.clear()
        self._parse_hits = self._parse_misses = 0
        self._render_hits = self._render_misses = 0

    def maximal_of(self, mask: int) -> int:
        """``MaxB(X)``: the maximal-in-N basis attributes below ``X``."""
        return mask & self.maximal

    # -- enumeration (test support; exponential for wide records) ---------

    def all_elements(self) -> Iterator[int]:
        """Enumerate the masks of every element of ``Sub(root)``.

        Exponential in the number of record components — intended for the
        small roots used in tests and examples.
        """
        for element in subattributes(self.root):
            yield self.encode(element)

    # -- text codec ----------------------------------------------------------

    def parse(self, text: str) -> int:
        """Mask of the abbreviated subattribute ``text`` (§3.3 notation).

        Equal to ``encode(parse_subattribute(text, root))`` for every
        text, error included.  One walk over the node table resolves each
        record component by its head and ORs the down-sets of the flat
        and list nodes it meets, so no tree is built.  A bare ``λ``
        component puts its record in positional mode: the arity must be
        full and every named component must stand at its own position.
        Whatever the walk does not decide alone — bad syntax, an unknown
        or repeated head, a record of the root with duplicate heads, a
        positional mismatch — is handed to
        :func:`~repro.attributes.parser.parse_subattribute`, which
        returns the element or raises the error.

        Successful parses are memoised by text, so a repeated text costs
        one dict lookup; a text that raises is parsed again on every
        call.  Texts longer than twice the root's own text (a canonical
        spelling is never longer than it) are parsed but not memoised,
        which bounds the memo's bytes by the root, not by the request.
        """
        memo = self._parse_memo
        mask = memo.get(text)
        if mask is not None:
            self._parse_hits += 1
            return mask
        self._parse_misses += 1
        root_node, parseable = self._nodes or self._build_nodes()
        mask = _walk(root_node, text) if parseable else None
        if mask is None:
            mask = self.encode(parse_subattribute(text, self.root))
        if len(text) <= 2 * len(root_node[4]):
            if len(memo) >= self._memo_maxsize:
                memo.clear()
            memo[text] = mask
        return mask

    def render(self, mask: int) -> str:
        """The abbreviated text of the down-closed ``mask``.

        Equal to ``unparse_abbreviated(decode(mask), root)``: record
        components at their bottom are left out when the record's heads
        identify the rest and shown as ``λ`` otherwise, a record of
        bottoms is its bottom, and the bottom of the root prints ``λ``.
        Memoised by mask.
        """
        memo = self._render_memo
        text = memo.get(mask)
        if text is not None:
            self._render_hits += 1
            return text
        self._render_misses += 1
        text = _render((self._nodes or self._build_nodes())[0], mask) or LAMBDA
        if len(memo) >= self._memo_maxsize:
            memo.clear()
        memo[mask] = text
        return text

    #: Human-readable form of an element mask (paper notation).
    describe = render

    def _build_nodes(self) -> tuple:
        """``(root node, parseable)``: the codec's table of the root.

        A node is ``(kind, name, mask, subtree, text, children, heads)``:
        ``mask`` is ``below[i]`` of the node's minimal basis attribute
        (0 for records and λ), ``subtree`` the bits of every basis
        attribute at or under the node and ``text`` the node's rendering
        when all of them are set.  ``basis_poset`` numbers basis
        attributes in structural pre-order (a list's minimum before its
        lifted element basis, record components left to right), so the
        index is a running count and no element is encoded.  A record's
        ``heads`` is its shared ``head_index()`` when the heads are
        distinct (the printer's λ-omission rule) and None otherwise.
        ``parseable`` is False when some name is not one token of the
        notation, since a text could then never spell it.
        """
        below = self.below
        names_ok = True

        def build(attribute: NestedAttribute, index: int) -> tuple[tuple, int]:
            nonlocal names_ok
            if isinstance(attribute, Flat):
                names_ok = names_ok and bool(_NAME_RE.fullmatch(attribute.name))
                return (_FLAT, attribute.name, below[index], 1 << index,
                        attribute.name, (), None), index + 1
            if isinstance(attribute, ListAttr):
                names_ok = names_ok and bool(_NAME_RE.fullmatch(attribute.label))
                element, end = build(attribute.element, index + 1)
                return (_LIST, attribute.label, below[index],
                        (1 << index) | element[3],
                        f"{attribute.label}[{element[4] or LAMBDA}]",
                        (element,), None), end
            if isinstance(attribute, Record):
                names_ok = names_ok and bool(_NAME_RE.fullmatch(attribute.label))
                children = []
                subtree = 0
                for component in attribute.components:
                    child, index = build(component, index)
                    children.append(child)
                    subtree |= child[3]
                heads = attribute.head_index()
                if len(heads) != len(children):
                    heads = None
                node = (_RECORD, attribute.label, 0, subtree, "",
                        tuple(children), heads)
                if subtree:
                    node = node[:4] + (_record_text(node, subtree),) + node[5:]
                return node, index
            return (_NULL, None, 0, 0, "", (), None), index

        root_node, _ = build(self.root, 0)
        self._nodes = (root_node, names_ok)
        return self._nodes

    def __repr__(self) -> str:
        return f"BasisEncoding(root={self.root}, size={self.size})"


class _Refused(Exception):
    """The mask walk cannot decide a text; the structural parser will."""


def _walk(root_node: tuple, text: str) -> int | None:
    """The mask of ``text`` by the node walk, or None when the walk
    leaves the text to the structural parser."""
    tokens = _CODEC_TOKEN_RE.findall(text)
    tokens.append("")  # end-of-input sentinel
    try:
        mask, end = _match(root_node, tokens, 0)
    except _Refused:
        return None
    return None if tokens[end] else mask


def _match(node: tuple, tokens: list[str], i: int) -> tuple[int, int]:
    """``(mask, next token index)`` of the attribute text at ``tokens[i]``
    matched against ``node``; raises :class:`_Refused` on anything the
    structural parser should decide."""
    token = tokens[i]
    if token in _LAMBDAS:
        return 0, i + 1
    kind = node[0]
    if token != node[1]:
        raise _Refused
    opener = tokens[i + 1]
    if kind == _FLAT:
        if opener == "(" or opener == "[":
            raise _Refused
        return node[2], i + 1
    if kind == _LIST:
        if opener != "[":
            raise _Refused
        inner, i = _match(node[5][0], tokens, i + 2)
        if tokens[i] != "]":
            raise _Refused
        return node[2] | inner, i + 1
    heads = node[6]
    if opener != "(" or heads is None:
        raise _Refused
    children = node[5]
    mask = taken = count = 0
    positional = misplaced = False
    i += 2
    while True:
        token = tokens[i]
        if token in _LAMBDAS:
            positional = True
            i += 1
        else:
            positions = heads.get(token)
            if positions is None:
                raise _Refused
            position = positions[0]
            if taken >> position & 1:
                raise _Refused
            taken |= 1 << position
            misplaced = misplaced or position != count
            inner, i = _match(children[position], tokens, i)
            mask |= inner
        count += 1
        token = tokens[i]
        i += 1
        if token == ")":
            break
        if token != ",":
            raise _Refused
    if positional and (misplaced or count != len(children)):
        raise _Refused
    return mask, i


def _render(node: tuple, mask: int) -> str:
    """The abbreviated text of ``mask`` under ``node``; ``""`` for its
    bottom."""
    subtree = node[3]
    present = mask & subtree
    if present == subtree:
        return node[4]
    if not present:
        return ""
    if node[0] == _LIST:
        return f"{node[1]}[{_render(node[5][0], mask) or LAMBDA}]"
    return _record_text(node, mask)


def _record_text(node: tuple, mask: int) -> str:
    """A record node's text for a mask with some of its bits set."""
    shown = []
    omit = node[6] is not None
    for child in node[5]:
        text = _render(child, mask)
        if text:
            shown.append(text)
        elif not omit:
            shown.append(LAMBDA)
    return f"{node[1]}({', '.join(shown)})"
