"""Parsing of nested-attribute expressions in the paper's notation.

Grammar (whitespace-insensitive)::

    attr   ::=  'λ' | 'lambda'
             |  NAME                       -- flat attribute
             |  NAME '(' attr (',' attr)* ')'   -- record-valued
             |  NAME '[' attr ']'               -- list-valued
    NAME   ::=  [A-Za-z_][A-Za-z0-9_-]*

Two entry points:

* :func:`parse_attribute` — parse an *exact* term; every ``λ`` must be
  written out.
* :func:`parse_subattribute` — parse the paper's *abbreviated* notation
  relative to a known root attribute: omitted record components are filled
  with their bottoms, and components are matched positionally (when the
  arity is complete) or by head symbol otherwise.  Ambiguous
  abbreviations — the paper's ``L(A)`` inside ``L(A, A)`` example — raise
  :class:`~repro.exceptions.AmbiguousAbbreviationError`.
"""

from __future__ import annotations

import operator
import re

from .nested import NULL, Flat, ListAttr, NestedAttribute, Null, Record
from .printer import unparse
from .subattribute import bottom
from ..exceptions import AmbiguousAbbreviationError, AttributeSyntaxError

__all__ = ["parse_attribute", "parse_subattribute"]

# One token: λ, a NAME or punctuation.  ``lambda`` is λ only where a
# NAME cannot continue, so ``lambda-x`` and ``lambda_x`` are names.
_TOKEN = r"λ|lambda(?![A-Za-z0-9_-])|[A-Za-z_][A-Za-z0-9_-]*|[()\[\],]"
_TOKEN_RE = re.compile(_TOKEN)
# The longest prefix made of tokens and whitespace: where it stops short
# of the end is the first character no token starts with.
_TOKENS_RE = re.compile(rf"(?:\s+|{_TOKEN})*")

_LAMBDAS = frozenset({"λ", "lambda"})
_PUNCTUATION = frozenset("()[],")


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text``, whitespace dropped (two C-level
    regex passes: one to find a bad character, one to split)."""
    end = _TOKENS_RE.match(text).end()
    if end < len(text):
        raise AttributeSyntaxError(
            f"unexpected character {text[end]!r} at offset {end} in {text!r}"
        )
    return _TOKEN_RE.findall(text)


class _Parser:
    """Recursive-descent parser over the token list.

    Token offsets are only needed for error messages, so they are
    recomputed (:meth:`_offset`) on the error path alone.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._tokens.append("")  # end-of-input sentinel
        self._cursor = 0

    def _offset(self, index: int) -> int:
        return [match.start() for match in _TOKEN_RE.finditer(self._text)][index]

    def _next(self) -> str:
        token = self._tokens[self._cursor]
        if not token:
            raise AttributeSyntaxError(f"unexpected end of input in {self._text!r}")
        self._cursor += 1
        return token

    def _expect(self, expected: str) -> None:
        if self._next() != expected:
            index = self._cursor - 1
            raise AttributeSyntaxError(
                f"expected {expected!r} but found {self._tokens[index]!r} at offset "
                f"{self._offset(index)} in {self._text!r}"
            )

    def parse(self) -> NestedAttribute:
        attribute = self._attr()
        trailing = self._tokens[self._cursor]
        if trailing:
            raise AttributeSyntaxError(
                f"trailing input {trailing!r} at offset {self._offset(self._cursor)} "
                f"in {self._text!r}"
            )
        return attribute

    def _attr(self) -> NestedAttribute:
        token = self._next()
        if token in _LAMBDAS:
            return NULL
        if token in _PUNCTUATION:
            index = self._cursor - 1
            raise AttributeSyntaxError(
                f"expected an attribute but found {token!r} at offset "
                f"{self._offset(index)} in {self._text!r}"
            )
        tokens = self._tokens
        following = tokens[self._cursor]
        if following == "(":
            self._cursor += 1
            components = [self._attr()]
            while tokens[self._cursor] == ",":
                self._cursor += 1
                components.append(self._attr())
            self._expect(")")
            return Record(token, tuple(components))
        if following == "[":
            self._cursor += 1
            element = self._attr()
            self._expect("]")
            return ListAttr(token, element)
        return Flat(token)


def parse_attribute(text: str) -> NestedAttribute:
    """Parse an exact nested-attribute term.

    Example
    -------
    >>> str(parse_attribute("Pubcrawl(Person, Visit[Drink(Beer, Pub)])"))
    'Pubcrawl(Person, Visit[Drink(Beer, Pub)])'
    >>> parse_attribute("λ").is_null
    True
    """
    return _Parser(text).parse()


def parse_subattribute(text: str, root: NestedAttribute) -> NestedAttribute:
    """Parse the paper's abbreviated subattribute notation against a root.

    The result is a structural element of ``Sub(root)`` with all omitted
    positions filled by the appropriate bottoms.

    Example
    -------
    >>> root = parse_attribute("L1(A, B, L2[L3(C, D)])")
    >>> str(parse_subattribute("L1(A, L2[λ])", root))
    'L1(A, λ, L2[L3(λ, λ)])'

    Raises
    ------
    AttributeSyntaxError
        On malformed input, or when the term cannot be embedded in
        ``Sub(root)``.
    AmbiguousAbbreviationError
        When an omitted-λ form matches the root ambiguously.
    """
    loose = _Parser(text).parse()
    return resolve_subattribute(loose, root)


def resolve_subattribute(loose: NestedAttribute, root: NestedAttribute) -> NestedAttribute:
    """Embed an (possibly abbreviated) attribute term into ``Sub(root)``."""
    if isinstance(loose, Null):
        return bottom(root)
    if isinstance(root, Flat):
        if isinstance(loose, Flat) and loose.name == root.name:
            return root
        raise AttributeSyntaxError(f"{unparse(loose)} does not match flat attribute {root.name}")
    if isinstance(root, ListAttr):
        if isinstance(loose, ListAttr) and loose.label == root.label:
            element = resolve_subattribute(loose.element, root.element)
            return root if element is root.element else ListAttr(root.label, element)
        raise AttributeSyntaxError(
            f"{unparse(loose)} does not match list attribute {unparse(root)}"
        )
    if isinstance(root, Record):
        if not isinstance(loose, Record) or loose.label != root.label:
            raise AttributeSyntaxError(
                f"{unparse(loose)} does not match record attribute {unparse(root)}"
            )
        if len(loose.components) == root.arity:
            positional = _try_positional(loose, root)
            if positional is not None:
                return positional
        return _resolve_by_heads(loose, root)
    raise AttributeSyntaxError(f"{unparse(loose)} does not match {unparse(root)}")


def _try_positional(loose: Record, root: Record) -> Record | None:
    """Attempt full-arity positional resolution; ``None`` if any slot fails."""
    resolved = []
    for component, component_root in zip(loose.components, root.components):
        try:
            resolved.append(resolve_subattribute(component, component_root))
        except AttributeSyntaxError:
            return None
    return _rebuilt(root, resolved)


def _resolve_by_heads(loose: Record, root: Record) -> Record:
    """Match abbreviated components to root components by head symbol."""
    positions = root.head_index()
    resolved = list(bottom(root).components)
    taken: set[int] = set()
    for component in loose.components:
        head = component.head()
        if head is None:
            raise AmbiguousAbbreviationError(
                f"bare λ cannot identify a component of {unparse(root)}; "
                "use the full positional form"
            )
        matches = positions.get(head, ())
        if not matches:
            raise AttributeSyntaxError(
                f"no component of {unparse(root)} has head {head!r}"
            )
        free_matches = [index for index in matches if index not in taken]
        if len(free_matches) != 1:
            raise AmbiguousAbbreviationError(
                f"component head {head!r} matches {len(matches)} components of "
                f"{unparse(root)}; the abbreviation is ambiguous — "
                "use the full positional form"
            )
        index = free_matches[0]
        taken.add(index)
        resolved[index] = resolve_subattribute(component, root.components[index])
    return _rebuilt(root, resolved)


def _rebuilt(root: Record, components: list[NestedAttribute]) -> Record:
    """The record of ``components``; ``root`` itself when they all are
    the root's own, so a fully written subtree shares the root's objects
    (and later ``≤`` checks against it stop at the identity test)."""
    if all(map(operator.is_, components, root.components)):
        return root
    return Record(root.label, tuple(components))
