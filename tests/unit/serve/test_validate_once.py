"""Each side of a served ``implies`` or ``add`` is checked against the
root once.

Parsed text is in ``Sub(N)`` by construction: a served text side is
parsed straight to its mask and checked by nobody.  A parsed dependency
pays the one membership check
:meth:`repro.attributes.encoding.BasisEncoding.encode` makes on a miss.  A dependency built outside the parser still fails with
:meth:`repro.dependencies.dependency.Dependency.validate`'s message, on
every path.
"""

import asyncio

import pytest

from repro.attributes import encoding as encoding_module
from repro.attributes import parse_attribute, parse_subattribute
from repro.core import commands
from repro.core.session import Session
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import (
    FunctionalDependency,
    MultivaluedDependency,
)
from repro.exceptions import NotAnElementError, ReproError
from repro.serve import AsyncClient, ReasoningServer, ServeConfig, ServerError

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
QUERY = "Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Visit[λ])"


@pytest.fixture
def root_checks(monkeypatch):
    """A list that grows by one entry per ``is_subattribute(x, root)``
    made by the encoding or by ``Dependency.validate``."""
    root = parse_attribute(SCHEMA)
    calls = []
    for module in (encoding_module, dependency_module):
        original = module.is_subattribute

        def counting(left, right, original=original):
            if right == root:
                calls.append(left)
            return original(left, right)

        monkeypatch.setattr(module, "is_subattribute", counting)
    return calls


def test_served_implies_checks_each_side_once(root_checks):
    async def scenario():
        async with ReasoningServer(ServeConfig()) as server:
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                await client.open("pub", SCHEMA, [MVD])
                # The first closure encodes Σ: not counted.
                await client.implies("pub", MVD)
                counts = []
                for _ in range(2):
                    before = len(root_checks)
                    await client.implies("pub", QUERY)
                    counts.append(len(root_checks) - before)
                return counts

    # Both sides are parsed straight to masks (BasisEncoding.parse): a
    # successful parse is a member by construction, so no side is
    # checked against the root, on the first request or the second.
    assert asyncio.run(scenario()) == [0, 0]


def _foreign_dependencies():
    root = parse_attribute(SCHEMA)
    inside = parse_subattribute("Pubcrawl(Person)", root)
    outside = parse_attribute("Pubcrawl(Age)")
    return root, [FunctionalDependency(outside, inside),
                  MultivaluedDependency(inside, outside)]


@pytest.mark.parametrize("index", [0, 1])
def test_foreign_sides_keep_the_validate_message(index):
    root, dependencies = _foreign_dependencies()
    dependency = dependencies[index]
    with pytest.raises(NotAnElementError) as expected:
        dependency.validate(root)
    message = str(expected.value)
    assert ("left" if index == 0 else "right") in message

    session = Session(root, [MVD])
    attempts = [
        lambda: session.implies(dependency),
        lambda: commands.execute(
            commands.Implies(dependency=dependency), session),
        lambda: commands.Implies(dependency=dependency).bind(
            session).lhs_masks(session),
        lambda: commands.ImpliesBatch(dependencies=(QUERY, dependency)
                                      ).bind(session).lhs_masks(session),
    ]
    for attempt in attempts:
        with pytest.raises(NotAnElementError) as raised:
            attempt()
        assert str(raised.value) == message


def test_served_add_checks_each_side_once(root_checks):
    """``Add`` binds the text to masks like ``implies`` does: a
    successful parse is a member by construction, so one add makes no
    root check at all."""
    async def scenario():
        async with ReasoningServer(ServeConfig()) as server:
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                await client.open("pub", SCHEMA, [MVD])
                before = len(root_checks)
                await client.add("pub", QUERY)
                return len(root_checks) - before

    assert asyncio.run(scenario()) == 0


FOREIGN_TEXTS = ["Pubcrawl(Age) -> Pubcrawl(Person)",
                 "Pubcrawl(Person) ->> Pubcrawl(Age)"]


@pytest.mark.parametrize("index", [0, 1])
def test_foreign_side_add_keeps_its_messages(index):
    root, dependencies = _foreign_dependencies()
    text = FOREIGN_TEXTS[index]
    with pytest.raises(ReproError) as parsed:
        Session(root).dependency(text)

    async def scenario():
        async with ReasoningServer(ServeConfig()) as server:
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                await client.open("pub", SCHEMA, [MVD])
                with pytest.raises(ServerError) as raised:
                    await client.add("pub", text)
                return raised.value

    # Served text outside Sub(N) fails in the parser: bad_params with
    # the parser's message.
    error = asyncio.run(scenario())
    assert (error.code, error.message) == ("bad_params", str(parsed.value))

    # A dependency built outside the parser fails in Session.add with
    # validate's message, which names the side.
    dependency = dependencies[index]
    with pytest.raises(NotAnElementError) as expected:
        dependency.validate(root)
    with pytest.raises(NotAnElementError) as raised:
        commands.execute(commands.Add(dependency=dependency),
                         Session(root, [MVD]))
    assert str(raised.value) == str(expected.value)
