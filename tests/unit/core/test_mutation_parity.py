"""``add`` and ``retract`` fail exactly like the structural parser.

A mutation binds its text to masks, but the structural parser stays the
definition of every error: a text it rejects must raise its exception
type and message through ``commands.execute``, and the same message as
``bad_params`` on the wire.  A non-member ``retract`` names the member's
canonical display, a dependency object outside ``Sub(N)`` fails with
:meth:`Dependency.validate`'s message, and a present member re-added in
another spelling is no edit.
"""

import asyncio

import pytest

from repro.attributes import parse_attribute, parse_subattribute
from repro.core import commands
from repro.core.session import Session
from repro.dependencies.dependency import (
    FunctionalDependency,
    MultivaluedDependency,
    parse_dependency,
)
from repro.serve import AsyncClient, ReasoningServer, ServeConfig, ServerError

SCHEMA = "R(A, B, L[C])"
MEMBER = "R(A) -> R(L[λ])"
#: MEMBER in another spelling: positional, ``lambda`` and a unicode arrow.
MEMBER_RESPELLED = "R(A, λ, λ) → R(λ, λ, L[lambda])"

#: The texts of ``test_dependency_errors_match_parse_dependency`` (no
#: arrow, bad syntax) plus an unknown head on either side.
BAD_TEXTS = ["R(A) R(B)", "R(A$) -> R(B)", "R(A) -> R(B", "R(A) ->> ",
             " -> R(A)", "R(Z) -> R(A)", "R(A) ->> R(B, Z)"]

#: Well-formed non-members, and what ``retract`` names them by.
NON_MEMBERS = ["R(λ, B, λ) ->> R(A)", "R(L[C], A) → R(B)",
               "R(A) -> R(L[λ], B)"]


def outcome(function):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


def root():
    return parse_attribute(SCHEMA)


def non_member_error(text):
    display = parse_dependency(text, root()).display(root())
    return ValueError, f"the dependency {display} is not a member of Σ"


def foreign_dependencies():
    inside = parse_subattribute("R(A)", root())
    outside = parse_attribute("R(Z)")
    return [FunctionalDependency(outside, inside),
            MultivaluedDependency(inside, outside)]


def execute(op, dependency):
    session = Session(SCHEMA, [MEMBER])
    kind = commands.Add if op == "add" else commands.Retract
    found = outcome(lambda: commands.execute(kind(dependency=dependency),
                                             session).result)
    assert session.snapshot_state()["dependencies"] == [MEMBER]
    return found


@pytest.mark.parametrize("op", ["add", "retract"])
@pytest.mark.parametrize("text", BAD_TEXTS)
def test_bad_texts_raise_the_parser_error(op, text):
    expected = outcome(lambda: parse_dependency(text, root()))
    assert expected[0] != "ok"
    assert execute(op, text) == expected


@pytest.mark.parametrize("text", NON_MEMBERS)
def test_retract_of_a_non_member_names_its_display(text):
    assert execute("retract", text) == non_member_error(text)


@pytest.mark.parametrize("op", ["add", "retract"])
@pytest.mark.parametrize("index", [0, 1])
def test_foreign_dependency_objects_keep_the_validate_message(op, index):
    dependency = foreign_dependencies()[index]
    expected = outcome(lambda: dependency.validate(root()))
    assert expected[0] != "ok"
    assert execute(op, dependency) == expected


def test_a_respelled_member_is_no_edit():
    session = Session(SCHEMA, [MEMBER])
    assert commands.execute(commands.Add(dependency=MEMBER_RESPELLED),
                            session).result == {"added": False, "sigma": 1}
    assert session.add(parse_dependency(MEMBER_RESPELLED, root())) is False
    assert MEMBER_RESPELLED not in session.snapshot_state()["dependencies"]


def test_the_wire_answers_like_execute():
    async def scenario():
        async with ReasoningServer(ServeConfig()) as server:
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                await client.open("s", SCHEMA, [MEMBER])
                found = []
                for op, text in ([("add", t) for t in BAD_TEXTS]
                                 + [("retract", t) for t in BAD_TEXTS]
                                 + [("retract", t) for t in NON_MEMBERS]):
                    try:
                        await client.request(op, session="s", dependency=text)
                        found.append("ok")
                    except ServerError as error:
                        found.append((error.code, error.message))
                respelled = await client.request("add", session="s",
                                                 dependency=MEMBER_RESPELLED)
                return found, respelled

    found, respelled = asyncio.run(scenario())
    expected = ([outcome(lambda t=t: parse_dependency(t, root()))
                 for t in BAD_TEXTS] * 2
                + [non_member_error(t) for t in NON_MEMBERS])
    assert found == [("bad_params", message) for _, message in expected]
    assert respelled == {"added": False, "sigma": 1}
