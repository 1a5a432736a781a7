"""The ``repro.serve`` wire protocol: versioned newline-delimited JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Responses carry the request's ``id`` and may arrive **out of order** —
the server pipelines requests per connection, so clients must match responses
to requests by id, not by arrival order.

Request::

    {"v": 1, "id": 7, "op": "implies",
     "params": {"session": "design", "dependency": "R(A) -> R(B)"}}

Success / error response::

    {"v": 1, "id": 7, "ok": true,  "result": {"implied": true}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "unknown_session", "message": "no session 'design'"}}

``id`` is any JSON string or integer chosen by the client; the server
echoes it verbatim.  ``v`` is :data:`PROTOCOL_VERSION`; the server
rejects other versions with ``invalid_request`` so wire-format changes
fail loudly instead of mis-decoding.

The operation set (:data:`OPS`) and per-op params/results are specified
in ``docs/SERVER.md``; the typed error codes are the :class:`ErrorCode`
constants below.  Problem-file texts reuse the :mod:`repro.io` encoding
(schemas in paper notation, dependencies as ``"X -> Y"`` displays), so a
served session is the same reproducible artifact shape as a problem
file on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..core import commands as _commands

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ErrorCode",
    "ProtocolError",
    "Request",
    "encode",
    "decode_request",
    "decode_response",
    "ok_response",
    "error_response",
]

#: Wire-format version; bump on any incompatible change.
PROTOCOL_VERSION = 1

#: Every operation the server understands — derived from the typed
#: command registry (:mod:`repro.core.commands`), never hand-kept:
#: registering a wire command there *is* adding it to the protocol.
OPS = _commands.wire_ops()


class ErrorCode:
    """Typed error codes (the ``error.code`` field of a failure response).

    Clients should branch on these, never on message text.
    """

    #: The line was not valid JSON, or not a JSON object.
    PARSE_ERROR = "parse_error"
    #: Structurally broken request: bad ``v``, missing/invalid ``id``,
    #: ``op`` or ``params`` of the wrong type.
    INVALID_REQUEST = "invalid_request"
    #: ``op`` is not a member of :data:`OPS`.
    UNKNOWN_OP = "unknown_op"
    #: The named session does not exist (never opened, closed, or evicted).
    UNKNOWN_SESSION = "unknown_session"
    #: ``open`` without ``replace`` for a name that is already open.
    SESSION_EXISTS = "session_exists"
    #: Op-specific parameter problems: unparsable schema/dependency/
    #: subattribute, wrong types, retracting a non-member, …
    BAD_PARAMS = "bad_params"
    #: The request exceeded the server's per-request deadline.
    TIMEOUT = "timeout"
    #: Backpressure: the server (or this connection) is at capacity and
    #: the request was rejected *immediately* instead of being queued.
    OVERLOADED = "overloaded"
    #: The server is draining for shutdown and accepts no new work.
    SHUTTING_DOWN = "shutting_down"
    #: Unexpected server-side failure (a bug; the message is a summary).
    INTERNAL = "internal"
    #: A mutation sent to a read-only replica; the message names the
    #: primary to send it to instead.
    NOT_PRIMARY = "not_primary"
    #: A fenced read (``min_seq``) against a replica that could not
    #: catch up to the fence within its wait budget.
    REPLICA_BEHIND = "replica_behind"


#: Codes whose requests may be retried against the same server later.
RETRYABLE = frozenset({ErrorCode.TIMEOUT, ErrorCode.OVERLOADED})


class ProtocolError(Exception):
    """A request that cannot be honoured, with its typed wire code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A decoded, structurally validated request."""

    id: int | str
    op: str
    params: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "id": self.id, "op": self.op,
                "params": dict(self.params)}


#: ``json.dumps`` with keyword arguments builds a fresh ``JSONEncoder``
#: per call; every response reuses this one instead.
_encode_json = json.JSONEncoder(ensure_ascii=False,
                                separators=(",", ":")).encode


def encode(message: dict[str, Any]) -> bytes:
    """Serialise one protocol message to a wire line (bytes incl. ``\\n``)."""
    return _encode_json(message).encode("utf-8") + b"\n"


def _decode_object(line: bytes | str) -> dict[str, Any]:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(ErrorCode.PARSE_ERROR,
                                f"line is not UTF-8: {error}") from error
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(ErrorCode.PARSE_ERROR,
                            f"line is not JSON: {error}") from error
    if not isinstance(data, dict):
        raise ProtocolError(ErrorCode.PARSE_ERROR,
                            f"expected a JSON object, got {type(data).__name__}")
    return data


def decode_request(line: bytes | str) -> Request:
    """Parse and validate one request line.

    Raises
    ------
    ProtocolError
        With :data:`ErrorCode.PARSE_ERROR` for non-JSON input,
        :data:`ErrorCode.INVALID_REQUEST` for structural problems and
        :data:`ErrorCode.UNKNOWN_OP` for unknown operations.
    """
    data = _decode_object(line)
    version = data.get("v")
    # bool is rejected explicitly: True == 1 in Python, so it would
    # otherwise slip past an equality check against the version number.
    if isinstance(version, bool) or version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    request_id = data.get("id")
    if not isinstance(request_id, (int, str)) or isinstance(request_id, bool):
        raise ProtocolError(ErrorCode.INVALID_REQUEST,
                            "'id' must be a JSON string or integer")
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "'op' must be a string")
    if op not in OPS:
        raise ProtocolError(ErrorCode.UNKNOWN_OP, f"unknown op {op!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(ErrorCode.INVALID_REQUEST,
                            "'params' must be a JSON object")
    return Request(request_id, op, params)


def decode_response(line: bytes | str) -> dict[str, Any]:
    """Parse one response line (client side); minimal structural checks."""
    data = _decode_object(line)
    if "id" not in data or "ok" not in data:
        raise ProtocolError(ErrorCode.PARSE_ERROR,
                            "response must carry 'id' and 'ok'")
    return data


def ok_response(request_id: int | str, result: dict[str, Any]) -> dict[str, Any]:
    """Build a success response message."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "result": result}


def error_response(request_id: int | str | None, code: str,
                   message: str) -> dict[str, Any]:
    """Build a failure response message.

    ``request_id`` is ``None`` when the line was too broken to recover
    an id (parse errors) — the client sees ``"id": null``.
    """
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": {"code": code, "message": message}}
