"""Write the ``data/`` directory and ``expected.json`` of this fixture.

The data directory is a durable server's store after a short edit
session spelled in every non-canonical way the notation allows (unicode
arrows, ``λ``/``lambda`` components, positional records, permuted
components, a re-add of a present member spelled differently).  The
eighth record trips one compaction, so the directory holds a snapshot
plus a WAL tail with ``open``/``add``/``retract``/``close`` records.

``expected.json`` is what a recovery of that directory reported and
answered at the commit that wrote it (see
``test_recorded_store.py``).  Regenerating both from a later commit pins
that commit's behaviour instead, so only run this to extend the
fixture on purpose::

    PYTHONPATH=src python tests/integration/recorded_store/make_fixture.py
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys

from repro.core import commands
from repro.serve import AsyncClient, ReasoningServer, ServeConfig
from repro.serve.server import SessionManager
from repro.store import recover

HERE = os.path.dirname(os.path.abspath(__file__))

PUB = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
NEST = "R(A, L[K(B, C)], M[D])"

#: ``(op, params)`` in order.  Responses are recorded; a re-add of a
#: present member answers ``added: false`` and writes no record.
SCRIPT = [
    ("open", {"name": "pub", "schema": PUB, "dependencies": [
        "Pubcrawl(Person) → Pubcrawl(Visit[λ])",
        "Pubcrawl(Person) ↠ Pubcrawl(Visit[Drink(Pub)])",
        # the first member again, positional and with lambda
        "Pubcrawl(Person, lambda) -> Pubcrawl(λ, Visit[λ])",
    ]}),
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(λ, Visit[Drink(Beer, λ)]) -> Pubcrawl(Person)"}),
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(Visit[Drink(Pub, Beer)]) -» Pubcrawl(Visit[Drink(Beer)])"}),
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(Visit[Drink(Beer)]) → Pubcrawl(Visit[Drink(Beer)], Person)"}),
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(λ, Visit[λ]) ->> Pubcrawl(Person)"}),
    ("open", {"name": "nest", "schema": NEST,
              "dependencies": ["R(A) → R(L[λ])"]}),
    ("add", {"session": "nest",
             "dependency": "R(L[K(C)]) ↠ R(M[λ])"}),
    ("add", {"session": "nest",
             "dependency": "R(λ, L[K(λ, C)], λ) -> R(A, M[D])"}),
    # -- the compaction runs after the eighth record --------------------
    ("retract", {"session": "pub",
                 "dependency": "Pubcrawl(Person, λ) ->> Pubcrawl(λ, Visit[Drink(λ, Pub)])"}),
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"}),
    # present already: added false, no record
    ("add", {"session": "pub",
             "dependency": "Pubcrawl(Person, λ) ↠ Pubcrawl(Visit[Drink(lambda, Pub)])"}),
    ("retract", {"session": "nest",
                 "dependency": "R(L[K(λ, C)]) ->> R(λ, λ, M[lambda])"}),
    ("open", {"name": "gone", "schema": "S(A, B)",
              "dependencies": ["S(A) → S(B)"]}),
    ("close", {"session": "gone"}),
    ("open", {"name": "nest", "schema": NEST, "replace": True,
              "dependencies": ["R(M[D]) -> R(λ, L[K(B, λ)], λ)",
                               "R(M[D]) → R(L[K(B)])"]}),
]

#: Probes asked of every recovered session, by schema.
PROBES = {
    PUB: {
        "implies": ["Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
                    "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
                    "Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Person)",
                    "Pubcrawl(Visit[λ]) ->> Pubcrawl(Person)",
                    "Pubcrawl(λ) -> Pubcrawl(Person)"],
        "closure": ["Pubcrawl(Person)", "Pubcrawl(Visit[λ])",
                    "Pubcrawl(Visit[Drink(Beer)])", "λ"],
        "basis": ["Pubcrawl(Person)", "Pubcrawl(Visit[Drink(Pub)])"],
        # edits after recovery: echo, duplicate, non-member
        "retract": ["Pubcrawl(λ, Visit[Drink(Beer, λ)]) → Pubcrawl(Person)"],
        "add": ["Pubcrawl(λ, Visit[Drink(Beer, λ)]) -> Pubcrawl(Visit[Drink(Beer)], Person)"],
    },
    NEST: {
        "implies": ["R(M[D]) -> R(L[K(B)])", "R(M[D]) ->> R(A)",
                    "R(A) -> R(L[λ])"],
        "closure": ["R(M[D])", "R(A)"],
        "basis": ["R(M[D])"],
        "retract": ["R(M[D]) -> R(L[K(B)])"],
        "add": ["R(λ, λ, M[D]) → R(L[K(B, λ)])"],
    },
}


def outcome(function):
    """``["ok", result]`` or ``[exception type name, message]``."""
    try:
        return ["ok", function()]
    except Exception as error:  # noqa: BLE001 - recorded, not handled
        return [type(error).__name__, str(error)]


def answers(manager: SessionManager) -> dict:
    """Every probe's wire result (or error) per recovered session; the
    edit probes run last, in order, and change the session."""
    found = {}
    for name in manager.names():
        session = manager.peek(name).session
        probes = PROBES[session.snapshot_state()["schema"]]

        def run(command):
            return outcome(lambda: commands.execute(command, session).result)

        found[name] = {
            "dependencies": [d.display(session.root)
                             for d in session.dependencies],
            "implies": [run(commands.Implies(dependency=text))
                        for text in probes["implies"]],
            "implies_batch": run(commands.ImpliesBatch(
                dependencies=tuple(probes["implies"]))),
            "closure": [run(commands.Closure(x=text))
                        for text in probes["closure"]],
            "basis": [run(commands.Basis(x=text))
                      for text in probes["basis"]],
            "edits": [run(commands.Retract(dependency=text))
                      for text in probes["retract"] * 2]
                     + [run(commands.Add(dependency=text))
                        for text in probes["add"] * 2],
            "after_edits": session.snapshot_state(),
        }
    return found


def recovered(data_dir: str) -> dict:
    """Recover ``data_dir`` into a fresh manager; report, state, answers."""
    manager = SessionManager()
    report = recover(data_dir, manager)
    return {
        "report": {"restored": list(report.restored),
                   "replayed": report.replayed, "skipped": report.skipped,
                   "torn": report.torn, "next_seq": report.next_seq,
                   "max_epoch": report.max_epoch,
                   "sessions": list(report.sessions),
                   "last_segment_records": report.last_segment_records},
        "snapshot_state": manager.snapshot_state(),
        "answers": answers(manager),
    }


async def write_store(data_dir: str) -> list:
    config = ServeConfig(data_dir=data_dir, fsync="off",
                         store_compact_records=8)
    responses = []
    async with ReasoningServer(config) as server:
        host, port = server.address
        async with await AsyncClient.connect(host, port) as client:
            for op, params in SCRIPT:
                responses.append([op, await client.request(op, **params)])
    return responses


def main() -> None:
    data_dir = os.path.join(HERE, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    responses = asyncio.run(write_store(data_dir))
    expected = {"responses": responses, **recovered(data_dir)}
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as handle:
        json.dump(expected, handle, ensure_ascii=False, indent=1)
        handle.write("\n")
    print(f"wrote {sorted(os.listdir(data_dir))}", file=sys.stderr)


if __name__ == "__main__":
    main()
