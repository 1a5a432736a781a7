"""Rendering of nested attributes in the paper's notation (Section 3.3).

Two renderers are provided:

* :func:`unparse` — the exact structural form, every ``λ`` explicit
  (``L₁(A, λ, L₂[L₃(λ, λ)])``).  Round-trips through
  :func:`repro.attributes.parser.parse_attribute`.
* :func:`unparse_abbreviated` — the paper's display convention: ``λ``
  components of records are omitted (``L₁(A, L₂[λ])``), and a record of
  bottoms collapses to ``λ``.  Abbreviation is *suppressed* (falling back
  to explicit ``λ`` placeholders) whenever omitting components would be
  ambiguous, e.g. for ``L(A, λ) ≤ L(A, A)`` which the paper notes cannot
  be shortened to ``L(A)``.
"""

from __future__ import annotations

from .nested import Flat, ListAttr, NestedAttribute, Null, Record
from ..exceptions import NotASubattributeError

__all__ = ["unparse", "unparse_abbreviated", "LAMBDA"]

#: The glyph used for the null attribute; the parser also accepts "lambda".
LAMBDA = "λ"


def unparse(attribute: NestedAttribute) -> str:
    """Render the exact structural form of a nested attribute."""
    if isinstance(attribute, Null):
        return LAMBDA
    if isinstance(attribute, Flat):
        return attribute.name
    if isinstance(attribute, ListAttr):
        return f"{attribute.label}[{unparse(attribute.element)}]"
    if isinstance(attribute, Record):
        inner = ", ".join(unparse(component) for component in attribute.components)
        return f"{attribute.label}({inner})"
    raise TypeError(f"not a nested attribute: {attribute!r}")  # pragma: no cover


def unparse_abbreviated(element: NestedAttribute, root: NestedAttribute) -> str:
    """Render ``element ∈ Sub(root)`` with the paper's λ-omission rules.

    One walk both checks ``element ≤ root`` (Definition 3.4) and renders.

    Parameters
    ----------
    element:
        The subattribute to display.
    root:
        The ambient attribute; needed because which components count as
        "bottom" (and whether omission is ambiguous) depends on it.

    Raises
    ------
    NotASubattributeError
        If ``element ≰ root``.

    Example
    -------
    >>> from repro.attributes.parser import parse_attribute as p
    >>> root = p("L1(A, B, L2[L3(C, D)])")
    >>> unparse_abbreviated(p("L1(A, λ, L2[L3(λ, λ)])"), root)
    'L1(A, L2[λ])'
    """
    text = _abbreviate(element, root)
    if text is None:
        raise NotASubattributeError(f"{unparse(element)} is not a subattribute of {unparse(root)}")
    return text or LAMBDA


def _abbreviate(element: NestedAttribute, root: NestedAttribute) -> str | None:
    """The abbreviated text of ``element``, ``""`` when it is the bottom
    of ``Sub(root)`` and ``None`` when ``element ≰ root``."""
    if isinstance(element, Null):
        # λ ≤ A, λ ≤ L[N] and λ ≤ λ; λ is below no record (Definition 3.4)
        return "" if isinstance(root, (Flat, ListAttr, Null)) else None
    if isinstance(element, Flat):
        return element.name if element == root else None
    if isinstance(element, ListAttr):
        if not isinstance(root, ListAttr) or element.label != root.label:
            return None
        inner = _abbreviate(element.element, root.element)
        if inner is None:
            return None
        return f"{element.label}[{inner or LAMBDA}]"
    if isinstance(element, Record):
        if (not isinstance(root, Record) or element.label != root.label
                or len(element.components) != len(root.components)):
            return None
        # λ components are omitted only when heads identify the rest
        omit = len(root.head_index()) == len(root.components)
        shown = []
        bottoms = 0
        for component, component_root in zip(element.components, root.components):
            text = _abbreviate(component, component_root)
            if text is None:
                return None
            if not text:
                bottoms += 1
                if omit:
                    continue
                text = LAMBDA
            shown.append(text)
        if bottoms == len(root.components):
            return ""
        return f"{element.label}({', '.join(shown)})"
    return None
