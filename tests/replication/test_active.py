"""The active-backup system: redo shipping, failover, the 1-safe
window, write coalescing of the redo stream."""

import pytest

from repro.errors import FailoverError
from repro.replication.active import ActiveReplicatedSystem, coalesce_writes
from repro.replication.commit_safety import CommitSafety
from repro.vista import EngineConfig

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)


def make(ring_bytes=4096, **kwargs):
    return ActiveReplicatedSystem(CONFIG, ring_bytes=ring_bytes, **kwargs)


def run_txns(system, count=5, width=16):
    for index in range(count):
        system.begin_transaction()
        offset = index * 64
        system.set_range(offset, width)
        system.write(offset, bytes([index + 1]) * width)
        system.commit_transaction()


def test_backup_database_tracks_commits():
    system = make()
    system.sync_initial()
    run_txns(system, 5)
    for index in range(5):
        assert system.backup_db.read(index * 64, 16) == bytes([index + 1]) * 16


def test_failover_preserves_committed_state():
    system = make()
    system.sync_initial()
    run_txns(system, 5)
    system.begin_transaction()
    system.set_range(0, 8)
    system.write(0, b"UNCOMMIT")
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, 16) == b"\x01" * 16


def test_uncommitted_writes_never_reach_backup():
    system = make()
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 8)
    system.write(0, b"dirtydat")
    assert system.backup_db.read(0, 8) == b"\x00" * 8
    system.abort_transaction()
    assert system.backup_db.read(0, 8) == b"\x00" * 8


def test_one_safe_window_loses_unpublished_commit():
    system = make()
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 4)
    system.write(0, b"SAFE")
    system.commit_transaction()
    system.begin_transaction()
    system.set_range(8, 4)
    system.write(8, b"LOST")
    system.commit_transaction_losing_publish()
    backup = system.failover()
    assert backup.read(0, 4) == b"SAFE"
    assert backup.read(8, 4) == b"\x00" * 4  # the 1-safe window
    assert system.lost_window_transactions == 1


def test_ring_exercises_wraparound_and_blocking():
    system = make(ring_bytes=128, auto_apply=False)
    system.sync_initial()
    run_txns(system, 30)  # far more data than the ring holds
    system.applier.apply_available()
    assert system.backup_db.read(29 * 64, 16) == bytes([30]) * 16
    assert system.producer.blocked_publishes > 0


def test_redo_stream_coalesces_into_large_packets():
    system = make()
    system.sync_initial()
    run_txns(system, 20, width=24)
    mean = system.primary_interface.trace.mean_packet_bytes()
    assert mean > 16.0, f"redo stream should ride large packets, got {mean}"


def test_undo_data_never_shipped():
    system = make()
    system.sync_initial()
    run_txns(system, 10)
    assert "undo" not in system.traffic_bytes_by_category


def test_redo_records_coalesce_adjacent_writes():
    system = make()
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 16)
    system.write(0, b"\x01" * 8)
    system.write(8, b"\x02" * 8)  # adjacent: one redo record
    system.commit_transaction()
    assert system.redo_records_shipped == 1
    assert system.backup_db.read(0, 16) == b"\x01" * 8 + b"\x02" * 8


def test_rewrite_of_same_bytes_ships_once_with_final_value():
    system = make()
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 8)
    system.write(0, b"AAAAAAAA")
    system.write(0, b"BBBBBBBB")
    system.commit_transaction()
    assert system.redo_records_shipped == 1
    assert system.backup_db.read(0, 8) == b"BBBBBBBB"


def test_two_safe_waits_for_backup():
    system = make(safety=CommitSafety.TWO_SAFE)
    system.sync_initial()
    run_txns(system, 3)
    # Under 2-safe every commit has been applied before returning.
    assert system.applier.transactions_applied == 3


def test_double_failover_rejected():
    system = make()
    system.sync_initial()
    system.fail_primary()
    system.failover()
    with pytest.raises(FailoverError):
        system.failover()


def test_backup_can_serve_after_takeover():
    system = make()
    system.sync_initial()
    run_txns(system, 2)
    system.fail_primary()
    backup = system.failover()
    backup.begin_transaction()
    backup.set_range(0, 8)
    backup.write(0, b"newlife!")
    backup.commit_transaction()
    assert backup.read(0, 8) == b"newlife!"


def test_ack_bytes_counted_separately():
    system = make()
    system.sync_initial()
    run_txns(system, 4)
    assert system.ack_bytes == 4 * 8
    assert system.ack_bytes not in system.traffic_bytes_by_category.values()


class TestCoalesceWrites:
    def test_empty(self):
        assert coalesce_writes([]) == []

    def test_disjoint_kept(self):
        assert coalesce_writes([(0, 4), (10, 4)]) == [(0, 4), (10, 4)]

    def test_adjacent_merged(self):
        assert coalesce_writes([(0, 4), (4, 4)]) == [(0, 8)]

    def test_overlapping_merged(self):
        assert coalesce_writes([(0, 8), (4, 8)]) == [(0, 12)]

    def test_contained_absorbed(self):
        assert coalesce_writes([(0, 16), (4, 4)]) == [(0, 16)]

    def test_unsorted_input(self):
        assert coalesce_writes([(10, 4), (0, 4), (14, 4)]) == [(0, 4), (10, 8)]

    def test_zero_length_extents_dropped(self):
        assert coalesce_writes([(7, 0)]) == []
        assert coalesce_writes([(0, 4), (9, 0), (20, 2), (2, 0)]) == [(0, 4), (20, 2)]
        assert coalesce_writes([(4, 0), (4, 3), (7, 0), (7, 2)]) == [(4, 5)]


def test_an_empty_write_ships_no_redo_record():
    """An isolated ``write(offset, b"")`` used to ship a header-only
    record: 8 META bytes and a ``redo_records_shipped`` for no data."""
    system = make()
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 8)
    system.set_range(100, 8)
    system.write(0, b"\x05" * 8)
    system.write(104, b"")
    system.commit_transaction()
    assert system.redo_records_shipped == 1
    # count + one header + the producer pointer at construction and now
    assert system.traffic_bytes_by_category == {"meta": 4 + 8 + 8 + 8, "modified": 8}
    assert system.applier.records_applied == 1
