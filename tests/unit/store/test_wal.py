"""WAL record format, torn-tail policy and the writer's fsync modes."""

import os

import pytest

from repro.store import (
    WalCorruptionError,
    WalRecord,
    WalWriter,
    decode_record,
    encode_record,
    read_segment,
)
from repro.store.wal import FSYNC_POLICIES


class TestRecordFormat:
    def test_roundtrip(self):
        line = encode_record(7, "add", {"session": "s", "dependency": "d"})
        assert line.endswith(b"\n")
        record = decode_record(line[:-1])
        assert record == WalRecord(7, "add",
                                   {"session": "s", "dependency": "d"})

    def test_canonical_and_unicode(self):
        # sort_keys + compact separators: the same params always encode
        # to the same bytes, and λ survives the trip
        a = encode_record(1, "add", {"b": 1, "a": "λ"})
        b = encode_record(1, "add", {"a": "λ", "b": 1})
        assert a == b

    def test_too_short(self):
        with pytest.raises(WalCorruptionError, match="header"):
            decode_record(b"0001")

    def test_bad_header(self):
        with pytest.raises(WalCorruptionError, match="header"):
            decode_record(b"zzzzzzzz zzzzzzzz {}")

    def test_length_mismatch(self):
        line = encode_record(1, "add", {})[:-1]
        with pytest.raises(WalCorruptionError, match="length"):
            decode_record(line + b"extra")

    def test_checksum_mismatch(self):
        line = bytearray(encode_record(1, "add", {})[:-1])
        line[-1] ^= 0xFF
        with pytest.raises(WalCorruptionError, match="checksum"):
            decode_record(bytes(line))

    def test_payload_not_json(self):
        import zlib
        payload = b"not json"
        line = (f"{len(payload):08x} {zlib.crc32(payload):08x} ".encode()
                + payload)
        with pytest.raises(WalCorruptionError, match="JSON"):
            decode_record(line)

    def test_payload_missing_fields(self):
        import json
        import zlib
        payload = json.dumps({"op": "add"}).encode()
        line = (f"{len(payload):08x} {zlib.crc32(payload):08x} ".encode()
                + payload)
        with pytest.raises(WalCorruptionError, match="seq/op/params"):
            decode_record(line)


class TestReadSegment:
    def _write(self, tmp_path, chunks):
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(b"".join(chunks))
        return str(path)

    def test_clean(self, tmp_path):
        chunks = [encode_record(i, "add", {"i": i}) for i in (1, 2, 3)]
        records, valid, tail = read_segment(self._write(tmp_path, chunks))
        assert [r.seq for r in records] == [1, 2, 3]
        assert valid == sum(len(c) for c in chunks)
        assert tail == b""

    def test_empty(self, tmp_path):
        records, valid, tail = read_segment(self._write(tmp_path, []))
        assert (records, valid, tail) == ([], 0, b"")

    def test_torn_tail_without_newline(self, tmp_path):
        good = encode_record(1, "add", {})
        torn = encode_record(2, "add", {})[: 10]
        path = self._write(tmp_path, [good, torn])
        records, valid, tail = read_segment(path)
        assert [r.seq for r in records] == [1]
        assert valid == len(good)
        assert tail == torn

    def test_full_record_missing_newline_is_torn(self, tmp_path):
        good = encode_record(1, "add", {})
        almost = encode_record(2, "add", {})[:-1]
        records, valid, tail = read_segment(
            self._write(tmp_path, [good, almost]))
        assert [r.seq for r in records] == [1]
        assert tail == almost

    def test_mid_stream_corruption_raises(self, tmp_path):
        good = encode_record(1, "add", {})
        bad = b"garbage garbage {\n"
        good2 = encode_record(2, "add", {})
        with pytest.raises(WalCorruptionError, match="corrupt record"):
            read_segment(self._write(tmp_path, [good, bad, good2]))

    def test_flipped_bit_followed_by_data_raises(self, tmp_path):
        first = bytearray(encode_record(1, "add", {"x": "abc"}))
        first[20] ^= 0x01
        second = encode_record(2, "add", {})
        with pytest.raises(WalCorruptionError):
            read_segment(self._write(tmp_path, [bytes(first), second]))


class TestWalWriter:
    def test_append_and_reread(self, tmp_path):
        path = str(tmp_path / "wal-00000001.log")
        writer = WalWriter(path, fsync="off")
        writer.append(1, "add", {"session": "s", "dependency": "a"})
        writer.append(2, "retract", {"session": "s", "dependency": "a"})
        writer.close()
        records, _, tail = read_segment(path)
        assert [(r.seq, r.op) for r in records] == [(1, "add"),
                                                   (2, "retract")]
        assert tail == b""

    def test_counters_and_sizes(self, tmp_path):
        from repro.obs import Tally
        counters = Tally()
        path = str(tmp_path / "wal-00000001.log")
        writer = WalWriter(path, fsync="always", counters=counters)
        n = writer.append(1, "add", {})
        assert writer.records == 1 and writer.bytes == n
        assert counters["store.appends"] == 1
        assert counters["store.append_bytes"] == n
        assert counters["store.fsyncs"] >= 1
        writer.close()

    def test_interval_policy_skips_most_fsyncs(self, tmp_path):
        from repro.obs import Tally
        counters = Tally()
        writer = WalWriter(str(tmp_path / "wal-00000001.log"),
                           fsync="interval", fsync_interval_s=3600.0,
                           counters=counters)
        for seq in range(1, 50):
            writer.append(seq, "add", {"seq": seq})
        assert counters["store.fsyncs"] == 0
        writer.close()

    def test_reopen_with_start_tallies(self, tmp_path):
        path = str(tmp_path / "wal-00000001.log")
        writer = WalWriter(path, fsync="off")
        writer.append(1, "add", {})
        writer.close()
        size = os.path.getsize(path)
        writer = WalWriter(path, fsync="off", start_records=1,
                           start_bytes=size)
        writer.append(2, "add", {})
        assert writer.records == 2 and writer.bytes > size
        writer.close()
        records, _, _ = read_segment(path)
        assert [r.seq for r in records] == [1, 2]

    def test_bad_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WalWriter(str(tmp_path / "w"), fsync="sometimes")
        assert set(FSYNC_POLICIES) == {"always", "interval", "off"}

    def test_close_is_idempotent(self, tmp_path):
        writer = WalWriter(str(tmp_path / "w"), fsync="off")
        writer.close()
        writer.close()

    def test_spans_validate(self, tmp_path):
        """store.append / store.fsync spans carry the documented attrs."""
        from repro.obs import InMemorySink, Observer, set_observer
        from repro.obs.validate import validate_records

        sink = InMemorySink()
        previous = set_observer(Observer([sink]))
        try:
            writer = WalWriter(str(tmp_path / "w"), fsync="always")
            writer.append(1, "add", {"session": "s"})
            writer.close()
        finally:
            set_observer(previous)
        names = [record["name"] for record in sink.spans]
        assert "store.append" in names and "store.fsync" in names
        validate_records(sink.spans)
