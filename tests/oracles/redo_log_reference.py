"""The per-store original of ``repro.replication.redo_log``, kept as a
test oracle.

This is the module as it stood before the redo stream travelled as
frames, verbatim below this docstring: the producer issues every
count, header and payload as its own ``_ring_write`` (one
``TransmitMapping.write`` each, two where a field straddles the ring
end), and the applier reads every field back through ``_ring_read``
and writes each record into the database as it goes — with no check
that a field ends before the producer pointer, so a torn ring makes it
wrap around and apply garbage. The property suite holds the live
module to it store for store: ring bytes, database, packet sizes in
order, every counter, every observer event, every exception.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import CrashedError, RedoLogFullError
from repro.memory.region import MemoryRegion, WriteCategory
from repro.obs.observer import resolve_observer
from repro.san.memory_channel import TransmitMapping

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")

_PRODUCER_OFFSET = 0
_DATA_START = 8

COUNT_BYTES = _U32.size
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class RedoRecord:
    """One modified range: where it goes and the bytes to install."""

    db_offset: int
    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)

    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.length


@dataclass(frozen=True)
class RedoTransaction:
    """A committed transaction's redo records, in write order."""

    records: Tuple[RedoRecord, ...]

    def wire_bytes(self) -> int:
        return COUNT_BYTES + sum(record.wire_bytes() for record in self.records)


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
        observer=None,
    ):
        self.mapping = ring_mapping
        self.consumer_region = consumer_region
        self.observer = resolve_observer(observer)
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

    def _ring_write(self, sequence: int, data: bytes, category: WriteCategory) -> None:
        """Write ``data`` at ring position of ``sequence`` (wrap-aware)."""
        position = _DATA_START + sequence % self.capacity
        first = min(len(data), _DATA_START + self.capacity - position)
        self.mapping.write(position, data[:first], category)
        if first < len(data):
            self.mapping.write(_DATA_START, data[first:], category)

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
        cursor = self.produced
        self._ring_write(cursor, _U32.pack(len(txn.records)), WriteCategory.META)
        cursor += COUNT_BYTES
        for record in txn.records:
            self._ring_write(
                cursor,
                _HEADER.pack(record.db_offset, record.length),
                WriteCategory.META,
            )
            cursor += HEADER_BYTES
            self._ring_write(cursor, record.data, WriteCategory.MODIFIED)
            cursor += record.length
        # All entries written; only now advance the end-of-buffer
        # pointer so the backup never sees a partial transaction. The
        # interface preserves store order (VIA-style), so no barrier is
        # needed; successive pointer stores coalesce in their write
        # buffer, which is why the redo stream's packet count stays at
        # roughly bytes/32 per transaction.
        self.produced = cursor
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
        observer=None,
    ):
        self.ring = ring_region
        self.db = db_region
        self.consumer_mapping = consumer_mapping
        self.observer = resolve_observer(observer)
        self.capacity = ring_region.size - _DATA_START
        self.consumed = 0
        self.transactions_applied = 0
        self.records_applied = 0
        self.bytes_applied = 0

    @property
    def produced(self) -> int:
        return self.ring.read_u64(_PRODUCER_OFFSET)

    def _ring_read(self, sequence: int, length: int) -> bytes:
        position = _DATA_START + sequence % self.capacity
        first = min(length, _DATA_START + self.capacity - position)
        data = self.ring.read(position, first)
        if first < length:
            data += self.ring.read(_DATA_START, length - first)
        return data

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

    def apply_one(self) -> bool:
        """Apply one whole transaction if available; returns True if
        one was applied."""
        if self.consumed >= self.produced:
            return False
        cursor = self.consumed
        (count,) = _U32.unpack(self._ring_read(cursor, COUNT_BYTES))
        cursor += COUNT_BYTES
        for _ in range(count):
            offset, length = _HEADER.unpack(self._ring_read(cursor, HEADER_BYTES))
            cursor += HEADER_BYTES
            data = self._ring_read(cursor, length)
            cursor += length
            self.db.write(offset, data, WriteCategory.MODIFIED)
            self.records_applied += 1
            self.bytes_applied += length
        self.consumed = cursor
        self.transactions_applied += 1
        self._ack()
        if self.observer.enabled:
            self.observer.event(
                "redo.applier", "ring.apply",
                consumed=self.consumed, produced=self.produced,
                capacity=self.capacity, records=count,
            )
        return True

    def apply_available(self) -> int:
        """Apply every complete transaction currently in the ring."""
        applied = 0
        while self.apply_one():
            applied += 1
        return applied
