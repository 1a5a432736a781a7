"""Property: a WAL record's bytes do not depend on how it is encoded.

:func:`repro.store.wal.encode_record` fills a per-op template when every
param value is a string and falls back to the JSON encoder otherwise.
Either way the bytes must be those of the canonical JSON written by
``json.dumps`` (sorted keys, no spaces, non-ASCII kept), for every
registered op's params and for hostile strings: quotes, backslashes,
control characters, ``%`` format directives and non-ASCII text.  A
lone surrogate has no UTF-8 bytes: where the canonical JSON cannot be
encoded, ``encode_record`` must raise the same ``UnicodeEncodeError``.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import commands
from repro.store.wal import decode_record, encode_record

HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\%sd{}[]:,λ\u2028\u00e9\U0001f600 \t\n\r\x00\x1f\x7f'),
        st.characters(),
    ),
    max_size=24,
)


def canonical(seq, op, params) -> bytes:
    payload = json.dumps({"op": op, "params": params, "seq": seq},
                         sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    return (f"{len(payload):08x} {zlib.crc32(payload):08x} ".encode("ascii")
            + payload + b"\n")


def assert_canonical(seq, op, params) -> bytes | None:
    """``encode_record``'s bytes equal :func:`canonical`'s, or both raise
    ``UnicodeEncodeError``; returns the bytes (``None`` if it raised)."""
    try:
        expected = canonical(seq, op, params)
    except UnicodeEncodeError:
        with pytest.raises(UnicodeEncodeError):
            encode_record(seq, op, params)
        return None
    data = encode_record(seq, op, params)
    assert data == expected
    return data


def _value(kind: str):
    if kind == "string":
        return HOSTILE
    if kind == "bool":
        return st.booleans()
    return st.lists(HOSTILE, max_size=3)


@st.composite
def records(draw):
    spec = draw(st.sampled_from([cls.spec for cls in
                                 commands.REGISTRY.values()]))
    params = {}
    for param in spec.params:
        if param.required or draw(st.booleans()):
            params[param.name] = draw(_value(param.type))
    # Unknown params reach the WAL too; their names may be hostile.
    for name in draw(st.lists(HOSTILE, max_size=2)):
        params[name] = draw(st.one_of(HOSTILE, st.none(), st.integers()))
    names = list(params)
    order = draw(st.permutations(names))
    params = {name: params[name] for name in order}
    op = draw(st.one_of(st.just(spec.name), HOSTILE))
    seq = draw(st.integers(min_value=0, max_value=2**40))
    return seq, op, params


@settings(max_examples=400, deadline=None)
@given(records())
@example((0, "open", {"name": "\ud800", "schema": "R(A, B)"}))
def test_template_bytes_equal_the_canonical_json(record):
    seq, op, params = record
    data = assert_canonical(seq, op, params)
    if data is not None:
        decoded = decode_record(data[:-1])
        assert (decoded.seq, decoded.op, decoded.params) == (seq, op, params)


@given(HOSTILE, HOSTILE, st.integers(min_value=0, max_value=2**40))
@example("\ud800", "R(A) -> R(B)", 0)
def test_string_params_take_the_template(session, dependency, seq):
    for params in ({"session": session, "dependency": dependency},
                   {"dependency": dependency, "session": session}):
        assert_canonical(seq, "add", params)
