"""Property tests: the one-pass printer decides membership and renders
exactly like a separate check followed by a separate rendering.

:func:`repro.attributes.unparse_abbreviated` checks ``element ≤ root``
in the same walk that renders the text.  These properties pin it to the
two-pass definition: it raises :class:`NotASubattributeError` exactly
when :func:`is_subattribute` says no, and otherwise returns the text of
the reference renderer below (the checking step kept apart from the
rendering step, as in Section 3.3's display convention).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import (
    NULL,
    BasisEncoding,
    Flat,
    ListAttr,
    Null,
    Record,
    bottom,
    is_subattribute,
    unparse_abbreviated,
)
from repro.exceptions import NotASubattributeError
from tests.strategies import nested_attributes

SETTINGS = settings(max_examples=300, deadline=None)


def _reference(element, root):
    """Two-pass rendering: membership first, then the λ-omission walk."""
    if not is_subattribute(element, root):
        raise NotASubattributeError("not a subattribute")
    return _reference_walk(element, root)


def _reference_walk(element, root):
    if isinstance(element, Null):
        return "λ"
    if isinstance(element, Flat):
        return element.name
    if isinstance(element, ListAttr):
        return f"{element.label}[{_reference_walk(element.element, root.element)}]"
    if element == bottom(root):
        return "λ"
    heads = [component.head() for component in root.components]
    pairs = zip(element.components, root.components)
    if len(set(heads)) == len(heads):
        shown = [_reference_walk(component, component_root)
                 for component, component_root in pairs
                 if component != bottom(component_root)]
    else:
        shown = [_reference_walk(component, component_root)
                 for component, component_root in pairs]
    return f"{element.label}({', '.join(shown)})"


@st.composite
def _duplicate_head_roots(draw):
    """Records with at least two components sharing a head symbol."""
    component = draw(nested_attributes(max_basis=3))
    twin = draw(st.one_of(
        st.just(component),
        st.builds(Flat, st.just(component.head())),
        st.builds(ListAttr, st.just(component.head()), st.just(Flat("A"))),
    ))
    others = draw(st.lists(nested_attributes(max_basis=2), max_size=1))
    components = [component, twin, *others]
    order = draw(st.permutations(components))
    return Record(draw(st.sampled_from(["L", "R"])), tuple(order))


_roots = st.one_of(nested_attributes(max_basis=7), _duplicate_head_roots(),
                   st.just(NULL))


@st.composite
def _element_of(draw, root):
    """A uniform-ish random element of ``Sub(root)``."""
    encoding = BasisEncoding(root)
    mask = draw(st.integers(min_value=0, max_value=encoding.full))
    return encoding.decode(encoding.down_close(mask))


@st.composite
def _root_and_foreign_element(draw):
    """``(root, element)`` with ``element`` drawn from ``Sub`` of any root,
    often a different one."""
    root = draw(_roots)
    source = draw(st.one_of(st.just(root), _roots))
    return root, draw(_element_of(source))


@SETTINGS
@given(_root_and_foreign_element())
def test_raises_exactly_for_non_members(case):
    root, element = case
    if is_subattribute(element, root):
        unparse_abbreviated(element, root)
    else:
        with pytest.raises(NotASubattributeError):
            unparse_abbreviated(element, root)


@SETTINGS
@given(_root_and_foreign_element())
def test_members_render_like_the_two_pass_reference(case):
    root, element = case
    try:
        expected = _reference(element, root)
    except NotASubattributeError:
        return
    assert unparse_abbreviated(element, root) == expected


@SETTINGS
@given(_roots.flatmap(lambda root: st.tuples(st.just(root), _element_of(root))))
def test_every_member_of_its_own_root_renders(case):
    root, element = case
    assert unparse_abbreviated(element, root) == _reference(element, root)
