"""SessionStore lifecycle: init, append, snapshot, compact, recover."""

import json
import os
from collections import Counter

import pytest

from repro.obs import Tally
from repro.serve.server import SessionManager
from repro.store import (
    SessionStore,
    WalCorruptionError,
    encode_record,
    inspect_store,
    load_manifest,
    read_segment,
    recover,
)
from repro.store.recovery import apply_record
from repro.store.wal import StoreError, WalRecord

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
DEP_A = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Beer)])"
DEP_B = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"


def fresh_store(tmp_path, manager=None, **kwargs):
    kwargs.setdefault("fsync", "off")
    store = SessionStore(str(tmp_path), **kwargs)
    store.start(manager if manager is not None else SessionManager())
    return store


def log(store, manager, op, params):
    """Apply one mutation to ``manager`` (when given) and WAL it."""
    if manager is not None:
        apply_record(manager, WalRecord(0, op, dict(params)),
                     origin=store.data_dir)
    store.append(op, params)


def log_session(store, manager=None, name="pub", deps=(DEP_A,)):
    log(store, manager, "open", {"name": name, "schema": SCHEMA})
    for dep in deps:
        log(store, manager, "add", {"session": name, "dependency": dep})


class TestLifecycle:
    def test_fresh_init(self, tmp_path):
        store = fresh_store(tmp_path)
        manifest = load_manifest(str(tmp_path))
        assert manifest.snapshot is None
        assert manifest.segments == ("wal-00000001.log",)
        assert store.last_seq == 0
        store.close()

    def test_double_start_refused(self, tmp_path):
        store = fresh_store(tmp_path)
        with pytest.raises(RuntimeError, match="already started"):
            store.start(SessionManager())
        store.close()

    def test_append_before_start_refused(self, tmp_path):
        store = SessionStore(str(tmp_path))
        with pytest.raises(RuntimeError, match="not started"):
            store.append("add", {})

    def test_bad_config(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            SessionStore(str(tmp_path), fsync="never")
        with pytest.raises(ValueError, match="thresholds"):
            SessionStore(str(tmp_path), compact_records=0)

    def test_stats(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        stats = store.stats()
        assert stats["last_seq"] == 2
        assert stats["segment"] == "wal-00000001.log"
        assert stats["segment_records"] == 2
        assert stats["recovered_sessions"] == 0
        assert stats["compactions"] == 0
        store.close()


class TestRecover:
    def test_append_then_recover(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store, deps=(DEP_A, DEP_B))
        store.close()

        manager = SessionManager()
        store2 = fresh_store(tmp_path, manager)
        report = store2.stats()
        assert report["replayed_records"] == 3
        assert manager.names() == ("pub",)
        session = manager.peek("pub").session
        assert len(session) == 2
        assert store2.last_seq == 3
        store2.append("retract", {"session": "pub", "dependency": DEP_A})
        assert store2.last_seq == 4
        store2.close()

    def test_replay_preserves_generation(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store, deps=(DEP_A, DEP_B))
        store.close()
        manager = SessionManager()
        fresh_store(tmp_path, manager).close()
        # open bumps nothing; each replayed add bumps the generation
        assert manager.peek("pub").generation == 2

    def test_snapshot_restores_epoch_and_generation(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store)
        managed = manager.open("pub", SCHEMA, [DEP_A], replace=True)
        managed.generation = 9
        epoch = managed.epoch
        store.snapshot(manager.snapshot_state())
        store.close()

        manager2 = SessionManager()
        store2 = fresh_store(tmp_path, manager2)
        restored = manager2.peek("pub")
        assert (restored.epoch, restored.generation) == (epoch, 9)
        assert store2.stats()["replayed_records"] == 0
        store2.close()

    def test_torn_tail_repaired(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        store.close()
        path = tmp_path / "wal-00000001.log"
        clean = path.read_bytes()
        path.write_bytes(clean + encode_record(3, "add", {})[:12])

        counters = Tally()
        store2 = fresh_store(tmp_path, counters=counters)
        assert counters["store.torn_records"] == 1
        assert store2.stats()["torn_records"] == 1
        assert path.read_bytes() == clean
        # new appends land on a clean boundary
        store2.append("close", {"session": "pub"})
        store2.close()
        records, _, tail = read_segment(str(path))
        assert [r.seq for r in records] == [1, 2, 3]
        assert tail == b""

    def test_mid_stream_corruption_refuses_startup(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store, deps=(DEP_A, DEP_B))
        store.close()
        path = tmp_path / "wal-00000001.log"
        data = bytearray(path.read_bytes())
        data[25] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            fresh_store(tmp_path)

    def test_unreplayable_record_refuses_startup(self, tmp_path):
        store = fresh_store(tmp_path)
        store.append("add", {"session": "ghost", "dependency": DEP_A})
        store.close()
        with pytest.raises(WalCorruptionError, match="does not re-execute"):
            fresh_store(tmp_path)

    def test_non_monotonic_seq_refuses_startup(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        store.close()
        path = tmp_path / "wal-00000001.log"
        with open(path, "ab") as handle:
            handle.write(encode_record(2, "close", {"session": "pub"}))
        with pytest.raises(WalCorruptionError, match="monotonic"):
            fresh_store(tmp_path)

    def test_recover_requires_fresh_manager(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        store.close()
        manager = SessionManager()
        manager.open("pub", SCHEMA)
        # replaying 'open' without replace collides with the live session
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path), manager)


class TestSnapshotCompact:
    def test_snapshot_keeps_segments(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store)
        name = store.snapshot(manager.snapshot_state())
        manifest = load_manifest(str(tmp_path))
        assert manifest.snapshot == name
        assert manifest.segments == ("wal-00000001.log",)
        store.close()

    def test_snapshot_replaces_previous(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store)
        first = store.snapshot(manager.snapshot_state())
        store.append("add", {"session": "pub", "dependency": DEP_B})
        second = store.snapshot(manager.snapshot_state())
        assert first != second
        assert not (tmp_path / first).exists()
        assert (tmp_path / second).exists()
        store.close()

    def test_compact_rolls_segment(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager, deps=(DEP_A, DEP_B))
        result = store.compact(manager.snapshot_state())
        assert result["segments_removed"] == 1
        assert result["last_seq"] == 3
        manifest = load_manifest(str(tmp_path))
        assert manifest.segments == ("wal-00000002.log",)
        assert not (tmp_path / "wal-00000001.log").exists()
        # appends continue on the fresh segment with the global seq
        log(store, manager, "close", {"session": "pub"})
        assert store.last_seq == 4
        store.close()

        manager2 = SessionManager()
        store2 = fresh_store(tmp_path, manager2)
        assert manager2.names() == ()
        assert store2.last_seq == 4
        store2.close()

    def test_should_compact_thresholds(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager, compact_records=3)
        log_session(store)
        assert not store.should_compact()
        store.append("add", {"session": "pub", "dependency": DEP_B})
        assert store.should_compact()
        assert store.maybe_compact(manager.snapshot_state())
        assert not store.should_compact()
        assert not store.maybe_compact(manager.snapshot_state())
        store.close()

    def test_orphan_sweep(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store)
        store.close()
        # debris a crashed compaction could leave behind
        (tmp_path / "snapshot-00000000000000ff.json").write_text("{}")
        (tmp_path / "wal-00000009.log").write_bytes(b"")
        (tmp_path / "snapshot-1.json.tmp").write_bytes(b"")

        counters = Tally()
        fresh_store(tmp_path, counters=counters).close()
        assert counters["store.orphans_removed"] == 3
        names = set(os.listdir(tmp_path))
        assert "wal-00000009.log" not in names
        assert "snapshot-00000000000000ff.json" not in names


class TestReplicationTailing:
    """The follower-facing surface: tailing, sequenced appends, resets."""

    def test_records_since_serves_the_tail(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store, deps=(DEP_A, DEP_B))
        tail = store.records_since(1)
        assert [r.seq for r in tail] == [2, 3]
        assert tail[0].op == "add"
        assert store.records_since(0, limit=2)[-1].seq == 2
        assert store.records_since(3) == []
        store.close()

    def test_records_since_beyond_last_seq_needs_reset(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        # a follower claiming a future seq cannot be tailed to
        assert store.records_since(9) is None
        store.close()

    def test_records_since_before_history_needs_reset(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager)
        store.compact(manager.snapshot_state())
        # seqs 1..2 were folded into the snapshot: a cold subscriber
        # (from_seq=0) cannot be served a contiguous tail
        assert store.records_since(0) is None
        assert store.records_since(2) == []
        store.close()

    def test_records_since_spans_a_snapshot_boundary(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager)
        store.compact(manager.snapshot_state())
        log(store, manager, "add", {"session": "pub", "dependency": DEP_B})
        assert [r.seq for r in store.records_since(2)] == [3]
        assert store.records_since(1) is None  # seq 2 is gone
        store.close()

    def test_records_since_reads_no_segment_file(self, tmp_path,
                                                 monkeypatch):
        store = fresh_store(tmp_path)
        log_session(store, deps=(DEP_A, DEP_B))
        store.close()

        reads = Counter()
        from repro.store import recovery as recovery_module
        from repro.store import store as store_module
        from repro.store import wal as wal_module

        def counting(path, original=wal_module.read_segment):
            reads["read_segment"] += 1
            return original(path)

        # every module that could reach a segment file by this name
        for module in (wal_module, recovery_module, store_module):
            monkeypatch.setattr(module, "read_segment", counting,
                                raising=False)
        store = fresh_store(tmp_path)             # recovery reads once
        assert reads["read_segment"] == 1
        store.append("add", {"session": "pub", "dependency": DEP_A})
        assert [r.seq for r in store.records_since(0)] == [1, 2, 3, 4]
        assert [r.seq for r in store.records_since(2, limit=1)] == [3]
        assert store.records_since(4) == []
        assert reads["read_segment"] == 1         # the tail is in memory
        store.close()

    def test_compaction_retains_the_records_above_the_horizon(self,
                                                              tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager, deps=(DEP_A, DEP_B))
        store.compact(manager.snapshot_state(), retain_after=2)
        assert [r.seq for r in store.records_since(2)] == [3]
        assert store.records_since(1) is None      # below the horizon
        assert store.stats()["tail_records"] == 1
        log(store, manager, "retract", {"session": "pub",
                                        "dependency": DEP_B})
        assert [r.seq for r in store.records_since(2)] == [3, 4]
        store.close()

    def test_the_retained_window_is_capped_at_compact_records(self,
                                                              tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager, compact_records=2)
        log_session(store, manager, deps=(DEP_A, DEP_B))
        store.compact(manager.snapshot_state(), retain_after=0)
        assert store.records_since(0) is None      # seq 1 fell off the cap
        assert [r.seq for r in store.records_since(1)] == [2, 3]
        store.close()

    def test_the_retained_window_is_capped_at_compact_bytes(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager, compact_bytes=3000)
        for _ in range(5):                        # ≈1.1 KB per record
            store.append("add", {"session": "pub", "dependency": DEP_A,
                                 "pad": "x" * 1000})
        store.compact(manager.snapshot_state(), retain_after=0)
        kept = store.records_since(3)
        assert [r.seq for r in kept] == [4, 5]    # a third would pass 3000
        assert store.records_since(2) is None
        assert sum(len(encode_record(r.seq, r.op, r.params))
                   for r in kept) <= 3000
        store.close()

    def test_append_record_keeps_the_primary_numbering(self, tmp_path):
        store = fresh_store(tmp_path)
        assert store.append_record(1, "open", {"name": "pub",
                                               "schema": SCHEMA}) == 1
        assert store.last_seq == 1
        with pytest.raises(StoreError, match="does not follow"):
            store.append_record(3, "add", {})
        with pytest.raises(StoreError, match="does not follow"):
            store.append_record(1, "add", {})  # duplicates refused too
        store.close()

    def test_a_restarted_follower_serves_no_stale_tail(self, tmp_path):
        # recovery seeds the tail with seqs 1-2; a sequenced append
        # moves last_seq past it, so the tail can no longer be indexed
        store = fresh_store(tmp_path)
        store.append_record(1, "open", {"name": "pub", "schema": SCHEMA})
        store.append_record(2, "add", {"session": "pub",
                                       "dependency": DEP_A})
        store.close()
        store = fresh_store(tmp_path)
        assert [r.seq for r in store.records_since(0)] == [1, 2]
        store.append_record(3, "add", {"session": "pub",
                                       "dependency": DEP_B})
        assert store.records_since(1) is None     # a reset, not [1, 2]
        assert store.stats()["tail_records"] == 0
        store.close()

    def test_reset_to_rebases_the_store(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager)
        result = store.reset_to(manager.snapshot_state(), 41)
        assert store.last_seq == 41
        assert result["last_seq"] == 41
        # the next replicated record must be exactly 42
        store.append_record(42, "add", {"session": "pub",
                                        "dependency": DEP_B})
        with pytest.raises(StoreError, match="negative"):
            store.reset_to({}, -1)
        store.close()

        # a restart recovers the rebased numbering from disk
        manager2 = SessionManager()
        store2 = fresh_store(tmp_path, manager2)
        assert store2.last_seq == 42
        assert len(manager2.peek("pub").session) == 2
        store2.close()


class TestInspect:
    def test_uninitialized(self, tmp_path):
        assert inspect_store(str(tmp_path)) == {
            "data_dir": str(tmp_path), "initialized": False}

    def test_summary(self, tmp_path):
        manager = SessionManager()
        store = fresh_store(tmp_path, manager)
        log_session(store, manager)
        store.snapshot(manager.snapshot_state())
        log(store, manager, "add", {"session": "pub", "dependency": DEP_B})
        store.close()
        info = inspect_store(str(tmp_path))
        assert info["initialized"]
        assert info["snapshot"]["last_seq"] == 2
        assert info["snapshot"]["sessions"]["pub"]["sigma"] == 1
        assert info["last_seq"] == 3
        assert info["next_seq"] == 4
        assert info["torn_tail_bytes"] == 0
        assert json.dumps(info)  # JSON-serializable for the CLI

    def test_torn_tail_reported_not_repaired(self, tmp_path):
        store = fresh_store(tmp_path)
        log_session(store)
        store.close()
        path = tmp_path / "wal-00000001.log"
        before = path.read_bytes()
        path.write_bytes(before + b"torn")
        info = inspect_store(str(tmp_path))
        assert info["torn_tail_bytes"] == 4
        assert path.read_bytes() == before + b"torn"
