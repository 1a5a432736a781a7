"""Property: persistence is invisible to semantics.

Any interleaving of ``add`` / ``retract`` (run through the command
registry exactly as the server does, persisted only when the outcome
actually mutated Σ) with arbitrarily placed snapshots and compactions,
followed by a crash-free recovery into a fresh
:class:`~repro.serve.server.SessionManager`, must reproduce the live
session bit-for-bit: the same schema/Σ/engine state, the same
generation, and the same closure answers as a Session built directly
from the final Σ — for all three engines.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import BasisEncoding, parse_attribute
from repro.core import Session, commands
from repro.dependencies import FunctionalDependency, MultivaluedDependency
from repro.serve.server import SessionManager
from repro.store import SessionStore

SCHEMA = "R(A, L[M(B, C)])"
ROOT = parse_attribute(SCHEMA)
ENCODING = BasisEncoding(ROOT)


@st.composite
def dependency_texts(draw):
    lhs = ENCODING.decode(ENCODING.down_close(
        draw(st.integers(min_value=0, max_value=ENCODING.full))))
    rhs = ENCODING.decode(ENCODING.down_close(
        draw(st.integers(min_value=0, max_value=ENCODING.full))))
    cls = (MultivaluedDependency if draw(st.booleans())
           else FunctionalDependency)
    return cls(lhs, rhs).display(ROOT)


@st.composite
def scripts(draw):
    """(steps, query masks): edits interleaved with durability ops."""
    pool = draw(st.lists(dependency_texts(), min_size=1, max_size=5))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(
            ["add", "add", "retract", "snapshot", "compact"]))
        if kind in ("add", "retract"):
            steps.append((kind, draw(st.sampled_from(pool))))
        else:
            steps.append((kind, None))
    masks = [ENCODING.down_close(draw(st.integers(min_value=0,
                                                  max_value=ENCODING.full)))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return steps, masks


def server_path(manager, store, op, params):
    """One mutation exactly as ``ReasoningServer._run`` runs it:
    execute through the registry, bump + persist only on mutation."""
    command = commands.from_wire(op, params)
    managed = manager.peek(params["session"])
    try:
        outcome = commands.execute(command, managed.session)
    except ValueError:
        return  # the server answers with a typed error; nothing persisted
    if outcome.mutated:
        managed.generation += 1
        store.append(op, params)


@pytest.mark.parametrize("engine", ["worklist", "naive", "reference"])
@settings(max_examples=20, deadline=None)
@given(scripts())
def test_recovery_equals_fresh_in_memory_session(engine, script):
    steps, masks = script
    data_dir = tempfile.mkdtemp(prefix="repro-store-prop-")
    try:
        manager = SessionManager()
        store = SessionStore(data_dir, fsync="off")
        store.start(manager)
        manager.open("s", SCHEMA, engine=engine)
        store.append("open", {"name": "s", "schema": SCHEMA,
                              "engine": engine})
        live = manager.peek("s")
        for kind, payload in steps:
            if kind in ("add", "retract"):
                server_path(manager, store, kind,
                            {"session": "s", "dependency": payload})
            elif kind == "snapshot":
                store.snapshot(manager.snapshot_state())
            else:
                store.compact(manager.snapshot_state())
        live_state = live.session.snapshot_state()
        live_generation = live.generation
        final = list(live.session.dependencies)
        store.close()

        recovered_manager = SessionManager()
        recovery = SessionStore(data_dir, fsync="off")
        report = recovery.start(recovered_manager)
        recovery.close()
        assert report.torn == 0
        recovered = recovered_manager.peek("s")
        assert recovered.generation == live_generation
        assert recovered.session.snapshot_state() == live_state

        fresh = Session(ROOT, final, encoding=ENCODING, engine=engine)
        for mask in masks:
            got = recovered.session.result_for_mask(mask)
            want = fresh.result_for_mask(mask)
            assert (got.closure_mask, got.blocks) == (want.closure_mask,
                                                      want.blocks)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
