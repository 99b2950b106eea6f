"""The framed redo stream against its per-store original.

``repro.replication.redo_log`` publishes a transaction as one run of
stores and applies it by decoding the frame in place;
``tests/oracles/redo_log_reference.py`` (the original, verbatim) issues
and reads back every field on its own. Over any stream of transactions
the two must be indistinguishable from outside: the ring's bytes, the
backup database, the packets *in the order they left*, every counter
of both interfaces, of the ring mapping and of the ring and database
regions, the applier's totals, every observer event and every raised
exception.

The strategy aims at where a run could part from its stores: rings
small enough that a frame wraps every few publishes (so counts,
headers and payloads all get to straddle the ring end), empty
payloads, rings that fill with and without an applier draining them,
``auto_apply`` on and off, trace reads and barriers in mid-stream, a
ring with write observers attached (the per-part lane), a primary that
crashes mid-stream before the backup drains what reached it — and a
pending-store limit low enough to be crossed in the middle of a run.
The original runs over the shipped write-buffer model and again over
the reference one (``tests/oracles/writebuffer_reference.py``), which
simulates every deferred store on its own.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import RedoLogCorruptError, ReproError
from repro.memory.rio import RioMemory
from repro.obs.observer import Observer
from repro.replication import redo_log
from repro.san import memory_channel
from repro.san.memory_channel import MemoryChannelInterface
from tests.oracles import redo_log_reference
from tests.oracles.writebuffer_reference import ReferenceWriteBufferModel

DB_BYTES = 1024

_record = st.tuples(
    st.integers(0, DB_BYTES - 200), st.binary(min_size=0, max_size=200)
)
_records = st.lists(_record, min_size=0, max_size=12)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("try_publish"), _records),
        st.tuples(st.just("publish"), _records, st.booleans()),  # drain?
        st.tuples(st.just("apply_one")),
        st.tuples(st.just("apply_available")),
        st.tuples(st.just("trace")),
        st.tuples(st.just("barrier")),
        st.tuples(st.just("crash")),
    ),
    min_size=1,
    max_size=30,
)


def _run(module, ring_bytes, ops, auto_apply, watch_ring,
         reference_buffers=False):
    """Drive ``ops`` through ``module``'s producer and applier; returns
    everything the outside can see."""
    observer = Observer()
    backup = RioMemory("backup")
    ring = backup.create_region("ring", ring_bytes + 8)
    db = backup.create_region("db", DB_BYTES)
    primary = RioMemory("primary")
    consumer = primary.create_region("consumer", 8)
    primary_if = MemoryChannelInterface("primary", observer=observer)
    backup_if = MemoryChannelInterface("backup", observer=observer)
    packets = []
    for interface in (primary_if, backup_if):
        if reference_buffers:
            interface.write_buffer = ReferenceWriteBufferModel()
        def on_packet(size, name=interface.node_name,
                      record=interface._trace.record):
            packets.append((name, size))
            record(size)
        interface.write_buffer.on_packet = on_packet
    writes = []
    watched = [db, consumer] + ([ring] if watch_ring else [])
    for region in watched:
        region.add_observer(lambda offset, length, category,
                            name=region.name: writes.append(
            (name, offset, length, category)))
    mapping = primary_if.map_remote(ring)
    producer = module.RedoLogProducer(mapping, consumer, observer=observer)
    applier = module.RedoLogApplier(
        ring, db, backup_if.map_remote(consumer), observer=observer)

    outcomes = []
    for op in ops:
        try:
            if op[0] in ("try_publish", "publish"):
                txn = module.RedoTransaction(tuple(
                    module.RedoRecord(offset, data) for offset, data in op[1]))
                if op[0] == "try_publish":
                    result = producer.try_publish(txn)
                else:
                    drain = applier.apply_available if op[2] else None
                    result = producer.publish(txn, drain=drain)
                if auto_apply and result is not False:
                    applier.apply_available()
            elif op[0] == "apply_one":
                result = applier.apply_one()
            elif op[0] == "apply_available":
                result = applier.apply_available()
            elif op[0] == "trace":
                result = dict(primary_if.trace.histogram)
            elif op[0] == "barrier":
                result = primary_if.barrier()
            else:  # what ActiveReplicatedSystem.fail_primary does
                primary.crash()
                result = primary_if.crash()
            outcomes.append(result)
        except ReproError as error:
            outcomes.append((type(error), str(error)))
    # failover's first step: the backup drains what reached its ring
    try:
        outcomes.append(applier.apply_available())
    except ReproError as error:
        outcomes.append((type(error), str(error)))
    histograms = [dict(i.trace.histogram) for i in (primary_if, backup_if)]
    primary.reboot()
    return {
        "outcomes": outcomes,
        "ring": ring.snapshot(),
        "db": db.snapshot(),
        "consumer": consumer.snapshot(),
        "packets": packets,
        "histograms": histograms,
        "io_stores": [i.io_stores for i in (primary_if, backup_if)],
        "bytes_sent": [i.bytes_sent for i in (primary_if, backup_if)],
        "by_category": [
            list(i.bytes_by_category.items()) for i in (primary_if, backup_if)
        ],
        "mapping": (mapping.bytes_sent, list(mapping.bytes_by_category.items())),
        "regions": [
            (r.writes_observed, r.bytes_written) for r in (ring, db, consumer)
        ],
        "producer": (producer.produced, producer.transactions_published,
                     producer.blocked_publishes),
        "applier": (applier.consumed, applier.transactions_applied,
                    applier.records_applied, applier.bytes_applied),
        "writes": writes,
        "events": [event.to_dict() for event in observer.recorder.events],
        "metrics": observer.registry.snapshot(),
    }


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "reference"])
@settings(max_examples=120, deadline=None)
@given(
    ring_bytes=st.sampled_from([48, 100, 257, 700, 4096]),
    ops=_ops,
    auto_apply=st.booleans(),
    watch_ring=st.booleans(),
    pending_limit=st.sampled_from([3, 7, 50, 8192]),
)
def test_framed_stream_equals_the_per_store_original(
    fast, ring_bytes, ops, auto_apply, watch_ring, pending_limit
):
    real_limit = memory_channel._PENDING_LIMIT
    memory_channel._PENDING_LIMIT = pending_limit
    try:
        new = _run(redo_log, ring_bytes, ops, auto_apply, watch_ring)
        old = _run(redo_log_reference, ring_bytes, ops, auto_apply,
                   watch_ring, reference_buffers=not fast)
    finally:
        memory_channel._PENDING_LIMIT = real_limit
    assert new == old


def test_a_long_stream_crosses_the_real_pending_limit():
    """Nothing drains the ring stream's deferred stores but the limit:
    18 stores a publish reach 8192 every ~455 publishes."""
    records = [(index * 16, bytes([index + 1]) * (index + 5))
               for index in range(8)]
    ops = [("publish", records, True)] * 1000
    at_limit = []
    flush = MemoryChannelInterface._flush_pending

    def spy(self):
        at_limit.append(len(self._pending) >= memory_channel._PENDING_LIMIT)
        flush(self)

    MemoryChannelInterface._flush_pending = spy
    try:
        new = _run(redo_log, 4096, ops, True, False)
        crossings = at_limit.count(True)
        old = _run(redo_log_reference, 4096, ops, True, False)
    finally:
        MemoryChannelInterface._flush_pending = flush
    assert new == old
    assert crossings == 2  # 18,001 stores on the primary's interface


# -- restartable, idempotent redo ---------------------------------------------
#
# What a REDO-only takeover rests on (Sauer & Haerder, PAPERS.md): a
# backup that applied frames whose acknowledgment the primary never saw
# restarts from an earlier frame boundary, re-applies, and ends in the
# state of applying every frame exactly once; one that restarts where
# no frame begins is refused before a byte of it reaches the database.

#: Small enough that a frame of the undrained backlog crosses the ring
#: end in about half of the examples.
_small_rings = st.sampled_from([64, 80, 100, 160])
#: A payload that itself spells a one-record frame, so a restart that
#: lands on it decodes a record whose offset lies anywhere — inside the
#: database or far outside it.
_frame_like = st.builds(
    lambda offset, length: struct.pack("<III", 1, offset, length),
    st.one_of(st.integers(0, DB_BYTES), st.integers(0, 2**32 - 1)),
    st.integers(0, 4),
)
_small_txn = st.lists(  # at most 4 + 3 * (8 + 12) = 64 bytes on the wire
    st.tuples(
        st.integers(0, DB_BYTES - 12),
        st.one_of(st.binary(max_size=12), _frame_like),
    ),
    max_size=3,
)


def _backlog(ring_bytes, drained, undrained):
    """Publish and drain ``drained`` (so the backlog starts anywhere in
    the ring), then publish ``undrained`` with the backup not draining
    until the ring is full. Returns the applier, its database, the
    frame boundaries of the backlog and the database image after each."""
    backup = RioMemory("backup")
    ring = backup.create_region("ring", ring_bytes + 8)
    db = backup.create_region("db", DB_BYTES)
    consumer = RioMemory("primary").create_region("consumer", 8)
    producer = redo_log.RedoLogProducer(
        MemoryChannelInterface("primary").map_remote(ring), consumer)
    applier = redo_log.RedoLogApplier(
        ring, db, MemoryChannelInterface("backup").map_remote(consumer))
    image = bytearray(DB_BYTES)

    def publish(records, drain):
        txn = redo_log.RedoTransaction(tuple(
            redo_log.RedoRecord(offset, data) for offset, data in records))
        if drain:
            producer.publish(txn, drain=applier.apply_available)
            applier.apply_available()
        elif not producer.try_publish(txn):
            return False
        for offset, data in records:
            image[offset : offset + len(data)] = data
        return True

    for records in drained:
        publish(records, drain=True)
    boundaries, images = [producer.produced], [bytes(image)]
    for records in undrained:
        if not publish(records, drain=False):
            break
        boundaries.append(producer.produced)
        images.append(bytes(image))
    return applier, db, boundaries, images


@settings(max_examples=150, deadline=None)
@given(
    ring_bytes=_small_rings,
    drained=st.lists(_small_txn, max_size=12),
    undrained=st.lists(_small_txn, min_size=1, max_size=12),
    data=st.data(),
)
def test_redo_restarts_from_any_applied_frame_boundary(
    ring_bytes, drained, undrained, data
):
    applier, db, boundaries, images = _backlog(ring_bytes, drained, undrained)
    frames = len(boundaries) - 1
    applied = data.draw(st.integers(0, frames), label="frames applied")
    restart = data.draw(st.integers(0, applied), label="restart at frame")
    for _ in range(applied):
        assert applier.apply_one()
    assert db.snapshot() == images[applied]

    restarted = redo_log.RedoLogApplier(
        applier.ring, db, applier.consumer_mapping)
    restarted.consumed = boundaries[restart]
    assert restarted.apply_available() == frames - restart
    assert restarted.consumed == boundaries[-1]
    assert db.snapshot() == images[-1]


def _spelled_frame(stream: bytes):
    """The records of the frame ``stream`` (every byte up to the
    producer pointer) begins with, or None where it begins with none."""
    if len(stream) < 4:
        return None
    (count,) = struct.unpack_from("<I", stream)
    cursor, records = 4, []
    for _ in range(count):
        if cursor + 8 > len(stream):
            return None
        offset, length = struct.unpack_from("<II", stream, cursor)
        cursor += 8 + length
        if cursor > len(stream):
            return None
        records.append((offset, length))
    return records


@settings(max_examples=150, deadline=None)
@given(
    ring_bytes=_small_rings,
    drained=st.lists(_small_txn, max_size=12),
    undrained=st.lists(_small_txn, min_size=1, max_size=12),
    data=st.data(),
)
def test_redo_restart_off_a_frame_boundary_never_applies_part_of_a_frame(
    ring_bytes, drained, undrained, data
):
    applier, db, boundaries, images = _backlog(ring_bytes, drained, undrained)
    assume(len(boundaries) > 1)
    anywhere = st.integers(boundaries[0] + 1, boundaries[-1] - 1)
    # Half the restarts land where a record's payload begins: the one
    # place a _frame_like payload is read as a frame.
    payloads = [
        boundary + 4 + sum(8 + len(data) for _, data in records[:index]) + 8
        for boundary, records in zip(boundaries[:-1], undrained)
        for index in range(len(records))
    ]
    torn = data.draw(
        (st.one_of(st.sampled_from(payloads), anywhere) if payloads
         else anywhere)
        .filter(lambda sequence: sequence not in boundaries),
        label="restart at byte",
    )
    ring, capacity = applier.ring.snapshot(), applier.capacity
    spelled = _spelled_frame(bytes(
        ring[8 + sequence % capacity] for sequence in range(torn, boundaries[-1])
    ))
    # Bytes that happen to spell a frame whose every record lies inside
    # the database are a frame to any decoder; what must never happen
    # is part of one — a record outside the database refuses them all.
    lands = spelled is not None and all(
        offset + length <= DB_BYTES for offset, length in spelled
    )

    restarted = redo_log.RedoLogApplier(
        applier.ring, db, applier.consumer_mapping)
    restarted.consumed = torn
    untouched = (images[0], db.writes_observed)
    if lands:
        assert restarted.apply_one()
        assert restarted.consumed == torn + 4 + sum(
            8 + length for _offset, length in spelled
        )
        assert restarted.records_applied == len(spelled)
    else:
        with pytest.raises(RedoLogCorruptError):
            restarted.apply_one()
        assert restarted.consumed == torn
        assert restarted.records_applied == 0
    if not spelled:
        assert (db.snapshot(), db.writes_observed) == untouched
