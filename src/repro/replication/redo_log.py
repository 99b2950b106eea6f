"""The redo-log circular buffer of the active-backup scheme (Section 6.1).

The redo log is a circular buffer with two pointers. The *producer*
pointer is maintained by the primary: at commit, the primary writes
the transaction's redo records through the Memory Channel and only
after all of the entries are written does it advance the end-of-buffer
pointer. The *consumer* pointer is maintained by the backup: after
applying a transaction to its copy of the database it writes its
pointer back through the SAN so the primary can tell how much buffer
space is free. If the log fills, the primary must block.

Pointers are monotonically increasing byte sequence numbers; the ring
position is ``sequence % capacity``, which makes wraparound arithmetic
trivial and gives an unambiguous full/empty distinction.

Wire format of one transaction::

    u32 record_count
    record_count * ( u32 db_offset, u32 length, length bytes of data )

Record headers and the producer pointer are META traffic; record
payloads are MODIFIED traffic — giving Table 7's breakdown directly.

A transaction travels as one *frame*: the producer encodes it once,
one part per field (each field stays its own I/O-space store), and
publishes the parts as a single run
(:meth:`~repro.san.memory_channel.TransmitMapping.write_run`). A frame
that crosses the ring end is the same run split there — a straddling
field becomes two stores of its category. The applier reads the
producer pointer once, decodes the frame in place off the ring's buffer
(from a linearised copy of that one frame if it crosses the ring end),
and writes no record until every field is known to end before the
pointer. The per-store original is ``tests/oracles/redo_log_reference``.
"""

from __future__ import annotations

import struct
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.errors import CrashedError, RedoLogCorruptError, RedoLogFullError
from repro.memory.region import MemoryRegion, WriteCategory
from repro.obs.observer import NULL_OBSERVER
from repro.san.memory_channel import TransmitMapping

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")

_PRODUCER_OFFSET = 0
_DATA_START = 8

COUNT_BYTES = _U32.size
HEADER_BYTES = _HEADER.size


class RedoRecord(NamedTuple):
    """One modified range: where it goes and the bytes to install."""

    db_offset: int
    data: bytes


class RedoTransaction:
    """A committed transaction's redo records, in write order."""

    def __init__(self, records: Tuple[RedoRecord, ...]):
        self.records = records
        self._wire_bytes = (
            COUNT_BYTES
            + HEADER_BYTES * len(records)
            + sum([len(data) for _, data in records])
        )

    def wire_bytes(self) -> int:
        return self._wire_bytes


def _split_run(parts: List[tuple], edge: int) -> Tuple[List[tuple], List[tuple]]:
    """``parts`` (longer than ``edge`` bytes) cut ``edge`` bytes in; a
    part that straddles the cut becomes two of its category (an empty
    piece issues no store)."""
    for index, (data, category) in enumerate(parts):
        if len(data) > edge:
            break
        edge -= len(data)
    head = parts[:index] + [(data[:edge], category)]
    return head, [(data[edge:], category)] + parts[index + 1 :]


class RedoLogProducer:
    """Primary-side writer of the redo ring.

    Args:
        ring_mapping: transmit window onto the backup's ring region.
        consumer_region: the primary-local region into which the backup
            writes its consumer pointer.
    """

    def __init__(
        self,
        ring_mapping: TransmitMapping,
        consumer_region: MemoryRegion,
        observer=NULL_OBSERVER,
    ):
        self.mapping = ring_mapping
        self.consumer_region = consumer_region
        self.observer = observer
        self.capacity = ring_mapping.size - _DATA_START
        self.produced = 0
        self.transactions_published = 0
        self.blocked_publishes = 0
        self._publish_pointer()

    # -- pointers -------------------------------------------------------------

    def _publish_pointer(self) -> None:
        self.mapping.write(
            _PRODUCER_OFFSET, self.produced.to_bytes(8, "little"),
            WriteCategory.META,
        )

    @property
    def consumed(self) -> int:
        return self.consumer_region.read_u64(0)

    def free_bytes(self) -> int:
        return self.capacity - (self.produced - self.consumed)

    # -- publishing ---------------------------------------------------------------

    def try_publish(self, txn: RedoTransaction) -> bool:
        """Publish one committed transaction; False if the ring lacks
        space (the caller must let the backup drain, then retry)."""
        needed = txn.wire_bytes()
        if needed > self.capacity:
            raise RedoLogFullError(
                f"transaction of {needed} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        if needed > self.free_bytes():
            self.blocked_publishes += 1
            if self.observer.enabled:
                self.observer.count("redo.ring.blocked")
                self.observer.event(
                    "redo.producer", "ring.blocked",
                    needed=needed, free=self.free_bytes(),
                    capacity=self.capacity,
                )
            return False
        # One store per field, as the primary issues them; the frame
        # is contiguous, so they go to the wire as one run.
        meta, modified = WriteCategory.META, WriteCategory.MODIFIED
        parts = [(_U32.pack(len(txn.records)), meta)]
        for db_offset, data in txn.records:
            parts.append((_HEADER.pack(db_offset, len(data)), meta))
            parts.append((data, modified))
        position = self.produced % self.capacity
        edge = self.capacity - position
        if needed > edge:
            # The frame crosses the ring end: the same run, split there.
            head, parts = _split_run(parts, edge)
            self.mapping.write_run(_DATA_START + position, head)
            position = 0
        self.mapping.write_run(_DATA_START + position, parts)
        # All entries written; only now advance the end-of-buffer
        # pointer so the backup never sees a partial transaction. The
        # interface preserves store order (VIA-style), so no barrier is
        # needed; successive pointer stores coalesce in their write
        # buffer, which is why the redo stream's packet count stays at
        # roughly bytes/32 per transaction.
        self.produced += needed
        self._publish_pointer()
        self.transactions_published += 1
        if self.observer.enabled:
            # The produced/consumed/capacity triple is what lets the
            # trace auditor prove the producer never laps the consumer.
            self.observer.event(
                "redo.producer", "ring.publish",
                produced=self.produced, consumed=self.consumed,
                capacity=self.capacity, wire_bytes=needed,
            )
        return True

    def publish(
        self, txn: RedoTransaction, drain: Optional[Callable[[], int]] = None
    ) -> None:
        """Publish, blocking on a full ring by invoking ``drain`` (the
        backup's applier) until space frees up."""
        while not self.try_publish(txn):
            if drain is None or drain() == 0:
                raise RedoLogFullError(
                    "redo ring full and the backup is not draining"
                )


class RedoLogApplier:
    """Backup-side consumer: busy-waits on the producer pointer and
    applies committed transactions to the backup's database copy."""

    def __init__(
        self,
        ring_region: MemoryRegion,
        db_region: MemoryRegion,
        consumer_mapping: TransmitMapping,
        observer=NULL_OBSERVER,
    ):
        self.ring = ring_region
        self.db = db_region
        self.consumer_mapping = consumer_mapping
        self.observer = observer
        self.capacity = ring_region.size - _DATA_START
        self.consumed = 0
        self.transactions_applied = 0
        self.records_applied = 0
        self.bytes_applied = 0

    @property
    def produced(self) -> int:
        return self.ring.read_u64(_PRODUCER_OFFSET)

    def _ack(self) -> None:
        """Write the consumer pointer back to the primary so it can
        reuse the acknowledged buffer space. An acknowledgment aimed at
        a crashed primary simply disappears (the DMA has no target)."""
        try:
            self.consumer_mapping.write(
                0, self.consumed.to_bytes(8, "little"), WriteCategory.META
            )
        except CrashedError:
            pass

    def _frame_end(self, ring, position: int, available: int) -> int:
        """Length of the frame at ring ``position``, capped at
        ``available``: its count and length words read wrap-aware, to
        tell whether the first frame of a backlog that crosses the
        ring end crosses it too."""

        wrapped = bytes(ring[_DATA_START : _DATA_START + 4])

        def word(cursor: int) -> int:
            index = _DATA_START + (position + cursor) % self.capacity
            return _U32.unpack_from(bytes(ring[index : index + 4]) + wrapped)[0]

        end = COUNT_BYTES
        for _ in range(word(0) if end <= available else 0):
            if end + HEADER_BYTES > available:
                break
            end += HEADER_BYTES + word(end + 4)
        return min(end, available)

    def apply_one(self) -> bool:
        """Apply one whole transaction if available; returns True if
        one was applied. A count, header or payload that would run
        past the producer pointer, or a record that would land outside
        the database, raises :class:`RedoLogCorruptError` before any
        record of the frame reaches the database."""
        produced = self.produced  # the frame's one crash/bounds test
        consumed = self.consumed
        if consumed >= produced:
            return False
        available = produced - consumed
        capacity = self.capacity
        if available > capacity:
            raise RedoLogCorruptError("the producer pointer", consumed, produced)
        ring = self.ring.data
        position = consumed % capacity
        base = _DATA_START + position
        edge = capacity - position
        if available > edge:
            # The backlog crosses the ring end: parse this frame in
            # place if it ends before the edge, else from a linearised
            # copy of it alone, never of the whole backlog.
            available = self._frame_end(ring, position, available)
            if available > edge:
                ring = bytes(ring[base : base + edge]) + bytes(
                    ring[_DATA_START : _DATA_START + available - edge]
                )
                base = 0
        limit = base + available
        cursor = base + COUNT_BYTES
        if cursor > limit:
            raise RedoLogCorruptError("record count", consumed, produced)
        (count,) = _U32.unpack_from(ring, base)
        db_size = self.db.size
        records = []
        for index in range(count):
            start = cursor + HEADER_BYTES
            if start > limit:
                raise RedoLogCorruptError(
                    f"header of record {index} of {count}", consumed, produced
                )
            offset, length = _HEADER.unpack_from(ring, cursor)
            cursor = start + length
            if cursor > limit:
                raise RedoLogCorruptError(
                    f"length {length} of record {index} of {count}", consumed, produced
                )
            if offset + length > db_size:
                raise RedoLogCorruptError(
                    f"offset {offset} of record {index} of {count}", consumed, produced
                )
            records.append((offset, start, length))
        write, modified = self.db.write, WriteCategory.MODIFIED
        for offset, start, length in records:
            write(offset, ring[start : start + length], modified)
            self.records_applied += 1
            self.bytes_applied += length
        self.consumed = consumed + cursor - base
        self.transactions_applied += 1
        self._ack()
        if self.observer.enabled:
            self.observer.event(
                "redo.applier", "ring.apply",
                consumed=self.consumed, produced=produced,
                capacity=capacity, records=count,
            )
        return True

    def apply_available(self) -> int:
        """Apply every complete transaction currently in the ring."""
        applied = 0
        while self.apply_one():
            applied += 1
        return applied
