"""Unit tests for the wire protocol: framing, validation, error codes."""

import json

import pytest

from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE,
    ErrorCode,
    ProtocolError,
    Request,
    decode_request,
    decode_response,
    encode,
    error_response,
    ok_response,
)


class TestFraming:
    def test_encode_is_one_compact_utf8_line(self):
        line = encode({"v": 1, "id": 1, "op": "closure",
                       "params": {"x": "R(λ)"}})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert b" " not in line  # compact separators
        assert "λ" in line.decode("utf-8")  # ensure_ascii off

    @pytest.mark.parametrize("text", [
        "R(λ) -> R(Visit[Drink(Bière)])", "tab\there, nul\x00, bell\x07",
        'a "quoted" name', "back\\slash \\n not a newline", "line\nbreak",
        "  🍺 \U0001f37a", "",
    ])
    def test_encode_matches_json_dumps(self, text):
        """The shared encoder writes the bytes ``json.dumps`` would."""
        for message in (ok_response(text, {"basis": [text, text[::-1]],
                                           "implied": True, "n": 3}),
                        error_response(None, ErrorCode.BAD_PARAMS, text)):
            assert encode(message) == json.dumps(
                message, ensure_ascii=False,
                separators=(",", ":")).encode("utf-8") + b"\n"

    def test_request_round_trips(self):
        request = Request(7, "implies",
                          {"session": "s", "dependency": "R(A) -> R(B)"})
        assert decode_request(encode(request.as_dict())) == request

    def test_string_ids_survive(self):
        request = decode_request(
            '{"v": 1, "id": "req-1", "op": "ping"}')
        assert request.id == "req-1"
        assert request.params == {}


class TestRequestValidation:
    def _code(self, line):
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        return info.value.code

    def test_not_json(self):
        assert self._code(b"not json\n") == ErrorCode.PARSE_ERROR

    def test_not_an_object(self):
        assert self._code(b"[1, 2]\n") == ErrorCode.PARSE_ERROR

    def test_not_utf8(self):
        assert self._code(b"\xff\xfe\n") == ErrorCode.PARSE_ERROR

    def test_wrong_version(self):
        line = json.dumps({"v": 99, "id": 1, "op": "ping"})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    def test_missing_version(self):
        line = json.dumps({"id": 1, "op": "ping"})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    def test_boolean_version_is_rejected(self):
        # True == 1 in Python; the version gate must not accept it
        line = json.dumps({"v": True, "id": 1, "op": "ping"})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    @pytest.mark.parametrize("bad_id", [None, True, 1.5, [1], {}])
    def test_bad_ids(self, bad_id):
        line = json.dumps({"v": PROTOCOL_VERSION, "id": bad_id, "op": "ping"})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    def test_unknown_op(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "id": 1, "op": "frobnicate"})
        assert self._code(line) == ErrorCode.UNKNOWN_OP

    def test_non_string_op(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "id": 1, "op": 7})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    def test_non_object_params(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "id": 1, "op": "ping",
                           "params": [1]})
        assert self._code(line) == ErrorCode.INVALID_REQUEST

    def test_every_documented_op_is_accepted(self):
        for op in OPS:
            request = decode_request(json.dumps(
                {"v": PROTOCOL_VERSION, "id": 1, "op": op}))
            assert request.op == op


class TestResponses:
    def test_ok_response_shape(self):
        message = ok_response(7, {"implied": True})
        assert message == {"v": PROTOCOL_VERSION, "id": 7, "ok": True,
                           "result": {"implied": True}}
        assert decode_response(encode(message)) == message

    def test_error_response_shape(self):
        message = error_response(7, ErrorCode.UNKNOWN_SESSION, "no session")
        assert message["ok"] is False
        assert message["error"]["code"] == "unknown_session"

    def test_unrecoverable_id_is_null(self):
        message = error_response(None, ErrorCode.PARSE_ERROR, "bad line")
        assert message["id"] is None

    def test_response_must_carry_id_and_ok(self):
        with pytest.raises(ProtocolError):
            decode_response(b'{"v": 1, "id": 7}\n')

    def test_retryable_codes(self):
        assert RETRYABLE == {ErrorCode.TIMEOUT, ErrorCode.OVERLOADED}
