"""The redo-log circular buffer: wire format, wraparound, flow control."""

import struct

import pytest

from repro.errors import RedoLogCorruptError, RedoLogFullError, ReplicationError
from repro.memory.region import MemoryRegion, WriteCategory
from repro.memory.rio import RioMemory
from repro.san.memory_channel import MemoryChannelInterface
from repro.replication.redo_log import (
    RedoLogApplier,
    RedoLogProducer,
    RedoRecord,
    RedoTransaction,
)


def make_ring(ring_bytes=256, db_bytes=1024):
    backup = RioMemory("backup")
    ring = backup.create_region("ring", ring_bytes + 8)
    backup_db = backup.create_region("db", db_bytes)
    primary = RioMemory("primary")
    consumer = primary.create_region("consumer", 8)
    primary_if = MemoryChannelInterface("primary")
    backup_if = MemoryChannelInterface("backup")
    producer = RedoLogProducer(primary_if.map_remote(ring), consumer)
    applier = RedoLogApplier(ring, backup_db, backup_if.map_remote(consumer))
    return producer, applier, backup_db


def txn(*records):
    return RedoTransaction(tuple(RedoRecord(o, d) for o, d in records))


def test_publish_and_apply_one_transaction():
    producer, applier, db = make_ring()
    assert producer.try_publish(txn((10, b"hello")))
    assert applier.apply_available() == 1
    assert db.read(10, 5) == b"hello"
    assert applier.transactions_applied == 1
    assert applier.records_applied == 1


def test_multi_record_transaction_applies_in_order():
    producer, applier, db = make_ring()
    producer.try_publish(txn((0, b"aaaa"), (0, b"bbbb"), (8, b"cc")))
    applier.apply_available()
    assert db.read(0, 4) == b"bbbb"  # later record wins
    assert db.read(8, 2) == b"cc"


def test_backup_sees_nothing_until_pointer_advances():
    producer, applier, _db = make_ring()
    assert applier.apply_available() == 0
    producer.try_publish(txn((0, b"x")))
    assert applier.apply_available() == 1


def test_ring_wraparound():
    producer, applier, db = make_ring(ring_bytes=64)
    for index in range(40):
        payload = bytes([index % 251 + 1]) * 8
        assert producer.try_publish(txn((index % 100, payload)))
        assert applier.apply_available() == 1
    assert producer.produced > 64  # wrapped several times


def test_producer_blocks_when_ring_full():
    producer, applier, _db = make_ring(ring_bytes=64)
    assert producer.try_publish(txn((0, b"\x01" * 30)))
    # Without the backup draining, the next publish must refuse.
    assert not producer.try_publish(txn((0, b"\x01" * 30)))
    assert producer.blocked_publishes == 1
    applier.apply_available()
    assert producer.try_publish(txn((0, b"\x01" * 30)))


def test_publish_with_drain_callback_unblocks():
    producer, applier, db = make_ring(ring_bytes=64)
    producer.publish(txn((0, b"\x01" * 30)), drain=applier.apply_available)
    producer.publish(txn((32, b"\x02" * 30)), drain=applier.apply_available)
    applier.apply_available()
    assert db.read(32, 30) == b"\x02" * 30


def test_publish_without_drain_raises_when_full():
    producer, _applier, _db = make_ring(ring_bytes=64)
    producer.try_publish(txn((0, b"\x01" * 30)))
    with pytest.raises(RedoLogFullError):
        producer.publish(txn((0, b"\x01" * 30)))


def test_oversized_transaction_rejected_outright():
    producer, _applier, _db = make_ring(ring_bytes=64)
    with pytest.raises(RedoLogFullError):
        producer.try_publish(txn((0, b"\x01" * 100)))


def test_traffic_categories():
    producer, applier, _db = make_ring()
    interface = producer.mapping.interface
    interface.reset_stats()
    producer.try_publish(txn((0, b"\x01" * 20)))
    by_category = interface.bytes_by_category
    assert by_category[WriteCategory.MODIFIED] == 20
    # count (4) + header (8) + producer pointer (8, written once at
    # publish) = 20 bytes of metadata.
    assert by_category[WriteCategory.META] == 20


def test_consumer_ack_flows_backwards():
    producer, applier, _db = make_ring()
    producer.try_publish(txn((0, b"abc")))
    applier.apply_available()
    assert producer.consumed == producer.produced
    assert applier.consumer_mapping.interface.bytes_sent == 8


def test_free_bytes_accounting():
    producer, applier, _db = make_ring(ring_bytes=128)
    capacity = producer.capacity
    assert producer.free_bytes() == capacity
    producer.try_publish(txn((0, b"\x01" * 20)))
    assert producer.free_bytes() == capacity - (4 + 8 + 20)
    applier.apply_available()
    assert producer.free_bytes() == capacity


def test_wire_bytes():
    t = txn((0, b"12345"), (10, b"6789"))
    assert t.wire_bytes() == 4 + (8 + 5) + (8 + 4)
    assert len(t.records[0].data) == 5


def test_empty_transaction_is_legal():
    producer, applier, _db = make_ring()
    assert producer.try_publish(txn())
    assert applier.apply_available() == 1


def test_record_spanning_ring_boundary():
    producer, applier, db = make_ring(ring_bytes=64)
    # Advance the cursor so the next payload straddles the wrap point.
    producer.publish(txn((0, b"\x01" * 25)), drain=applier.apply_available)
    producer.publish(txn((30, b"WRAPAROUND!!")), drain=applier.apply_available)
    applier.apply_available()
    assert db.read(30, 12) == b"WRAPAROUND!!"


# -- a torn or corrupted ring -----------------------------------------------


def _poke_ring(applier, sequence, data):
    """Overwrite ring bytes at ``sequence`` behind the producer's back."""
    for index, byte in enumerate(data):
        applier.ring.poke(8 + (sequence + index) % applier.capacity, bytes([byte]))


def _assert_refused(applier, db, field):
    before = (db.snapshot(), db.writes_observed, applier.consumed)
    with pytest.raises(RedoLogCorruptError) as caught:
        applier.apply_one()
    error = caught.value
    assert isinstance(error, ReplicationError)
    assert field in error.field
    assert (error.consumed, error.produced) == (applier.consumed, applier.produced)
    for fact in (error.field, f"consumed={error.consumed}",
                 f"produced={error.produced}"):
        assert fact in str(error)
    # nothing reached the database, nothing was consumed or acknowledged
    assert (db.snapshot(), db.writes_observed, applier.consumed) == before
    assert applier.records_applied == 0
    assert applier.consumer_mapping.interface.io_stores == 0


def test_corrupted_record_count_is_refused():
    producer, applier, db = make_ring()
    producer.try_publish(txn((10, b"hello"), (20, b"world")))
    _poke_ring(applier, 0, struct.pack("<I", 3))  # claims a third record
    _assert_refused(applier, db, "header of record 2 of 3")


def test_oversized_record_length_is_refused_before_earlier_records_land():
    producer, applier, db = make_ring()
    producer.try_publish(txn((10, b"hello"), (20, b"world")))
    second_header = 4 + 8 + 5
    _poke_ring(applier, second_header, struct.pack("<II", 20, 4000))
    _assert_refused(applier, db, "length 4000 of record 1 of 2")


def test_out_of_database_offset_is_refused_before_earlier_records_land():
    producer, applier, db = make_ring()  # a 1,024-byte database
    producer.try_publish(txn((10, b"hello"), (20, b"world")))
    second_header = 4 + 8 + 5
    _poke_ring(applier, second_header, struct.pack("<II", 1020, 5))
    _assert_refused(applier, db, "offset 1020 of record 1 of 2")


def test_frame_truncated_by_a_lowered_producer_pointer_is_refused():
    producer, applier, db = make_ring()
    producer.try_publish(txn((10, b"hello"), (20, b"world")))
    full = producer.produced
    for produced, field in ((full - 1, "length 5 of record 1"),
                            (4 + 8 + 5 + 3, "header of record 1"),
                            (3, "record count")):
        applier.ring.poke(0, produced.to_bytes(8, "little"))
        _assert_refused(applier, db, field)
    applier.ring.poke(0, full.to_bytes(8, "little"))
    assert applier.apply_available() == 1
    assert db.read(20, 5) == b"world"


def test_producer_pointer_beyond_the_ring_is_refused():
    producer, applier, db = make_ring(ring_bytes=64)
    producer.try_publish(txn((10, b"hello")))
    applier.ring.poke(0, (64 + 1).to_bytes(8, "little"))
    _assert_refused(applier, db, "producer pointer")


def test_corrupt_frame_across_the_ring_end_is_refused():
    producer, applier, db = make_ring(ring_bytes=64)
    producer.publish(txn((0, b"\x01" * 38)), drain=applier.apply_available)
    applier.apply_available()
    db.fill(0)
    db.writes_observed = applier.records_applied = 0
    applier.consumer_mapping.interface.reset_stats()
    # 50 consumed; this frame's second header straddles the ring end
    producer.try_publish(txn((0, b"ab"), (8, b"cdef")))
    assert producer.produced == 50 + 26 > 64
    _poke_ring(applier, 50 + 4 + 8 + 2 + 4, struct.pack("<I", 13))
    _assert_refused(applier, db, "length 13 of record 1 of 2")
    _poke_ring(applier, 50 + 4 + 8 + 2 + 4, struct.pack("<I", 4))
    assert applier.apply_available() == 1
    assert (db.read(0, 2), db.read(8, 4)) == (b"ab", b"cdef")


def test_only_the_frame_that_crosses_the_ring_end_is_copied():
    """A backlog that wraps: frames before the ring end are decoded in
    place, the crossing frame from a copy of itself alone."""
    producer, applier, db = make_ring(ring_bytes=64)
    producer.publish(txn((0, b"\x01" * 28)), drain=applier.apply_available)
    applier.apply_available()  # consumed = 40
    producer.try_publish(txn((0, b"aa")))         # [40, 54)
    producer.try_publish(txn((8, b"b" * 10)))     # [54, 76): crosses
    producer.try_publish(txn((24, b"cc")))        # [76, 90)
    ends = []
    frame_end = applier._frame_end
    applier._frame_end = lambda *args: (ends.append(frame_end(*args)), ends[-1])[1]
    assert applier.apply_available() == 3
    assert ends == [14, 22]  # asked while the backlog crossed the end
    assert (db.read(0, 2), db.read(8, 10), db.read(24, 2)) == (
        b"aa", b"b" * 10, b"cc")
