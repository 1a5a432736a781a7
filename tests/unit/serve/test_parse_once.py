"""Each text side of a served request is parsed exactly once, to a mask.

The server runs a command unbound, and the run parses each side once.
Only a cold command near capacity is bound first
(:meth:`repro.core.commands.Command.bind`), so that the shed-cold check
and the run share one parse.  A side is parsed by
:meth:`repro.attributes.encoding.BasisEncoding.parse`, straight to its
mask; the structural parser
(:func:`repro.attributes.parser.parse_subattribute`) is reached only
for texts the mask walk hands over, and none of the valid requests here
is one.  The structural counts are real calls: every module that
imported ``parse_subattribute`` by name sees the counting wrapper.
"""

import asyncio
import sys

import pytest

from repro.attributes import parser
from repro.attributes.encoding import BasisEncoding
from repro.batch import BulkReasoner
from repro.serve import AsyncClient, ReasoningServer, ServeConfig

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
QUERIES = [
    "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
    "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)",
]


@pytest.fixture
def parses(monkeypatch):
    """A list that grows by one entry per mask parse of a text side."""
    original = BasisEncoding.parse
    calls = []

    def counting(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(BasisEncoding, "parse", counting)
    return calls


@pytest.fixture
def structural_parses(monkeypatch):
    """A list that grows by one entry per real ``parse_subattribute``."""
    original = parser.parse_subattribute
    calls = []

    def counting(text, root):
        calls.append(text)
        return original(text, root)

    for module in list(sys.modules.values()):
        if getattr(module, "parse_subattribute", None) is original:
            monkeypatch.setattr(module, "parse_subattribute", counting)
    return calls


def test_served_requests_parse_each_side_once(parses, structural_parses):
    async def scenario():
        async with ReasoningServer(ServeConfig()) as server:
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                await client.open("pub", SCHEMA, [MVD])
                counts = {}
                before_reads = len(structural_parses)

                async def count(name, request):
                    before = len(parses)
                    await request
                    counts[name] = len(parses) - before

                await count("implies", client.implies("pub", QUERIES[0]))
                await count("closure",
                            client.closure("pub", "Pubcrawl(Person)"))
                await count("basis", client.basis("pub", "Pubcrawl(Person)"))
                await count("implies_batch",
                            client.implies_batch("pub", QUERIES))
                return counts, len(structural_parses) - before_reads

    counts, structural = asyncio.run(scenario())
    assert counts == {"implies": 2, "closure": 1, "basis": 1,
                      "implies_batch": 6}
    assert structural == 0


def test_bulk_reasoner_parses_each_side_once(parses, structural_parses):
    bulk = BulkReasoner(SCHEMA, [MVD])
    before = len(parses)
    before_structural = len(structural_parses)
    assert bulk.implies_all(QUERIES) == [True, True, False]
    assert len(parses) - before == 6
    assert len(structural_parses) - before_structural == 0
