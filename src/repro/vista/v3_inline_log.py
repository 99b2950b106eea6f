"""Version 3 — improved logging (Section 4.4).

Pre-images are kept *inline* in the undo log: a ``set_range``
allocates a log record by simply advancing a pointer and writes the
range coordinates followed by the range's current data. Database
writes remain in-place; commit de-allocates the records by moving the
pointer back.

The write traffic equals Version 1's, but every log write is
*contiguous*: accesses stay localized to the database and the (small,
recycled, cache-hot) log instead of wandering over a database-sized
mirror. Locally this means better cache behaviour (Table 3); through
the Memory Channel it means one unbroken store stream that coalesces
into full 32-byte packets and therefore rides at the full 80 MB/s
(Tables 4-5, Figures 2-3).

Log format. Each record carries an **epoch-validated header** —
``(db_offset: u32, length: u32, epoch: u32)`` — where the epoch is the
commit sequence number of the transaction that wrote it. Committing
increments the commit sequence, which invalidates every live record in
one 8-byte control write; the allocation pointer itself never needs to
be written through, because recovery re-derives the log's extent by
scanning from the base and stopping at the first record whose epoch is
not current (or whose header is out of bounds). Stale records beyond
the live region always carry older epochs, so the scan terminates
correctly; FIFO delivery on the Memory Channel guarantees the backup
has every record (header before data before the in-place database
writes it covers).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.errors import AllocationError
from repro.memory.region import WriteCategory
from repro.vista.api import EngineConfig, TransactionEngine

_HEADER = struct.Struct("<III")  # db offset, length, epoch

HEADER_BYTES = _HEADER.size
_COMMIT_SEQ = 8
_EPOCH_MASK = 0xFFFFFFFF


class InlineLogEngine(TransactionEngine):
    """Version 3: inline undo log allocated by a bump pointer."""

    VERSION = "v3"
    TITLE = "Version 3 (Improved Log)"
    REPLICATED = ("db", "control", "ulog")
    LOCAL = ()

    @classmethod
    def _extra_region_specs(cls, config: EngineConfig) -> Dict[str, int]:
        return {"ulog": config.log_bytes}

    @classmethod
    def working_sets(cls, config: EngineConfig):
        yield from super().working_sets(config)
        # The log empties at every commit, so only a small hot prefix
        # is ever live — that is the locality advantage.
        yield "ulog", config.log_hot_bytes

    def _setup(self, fresh: bool) -> None:
        self.log_region = self.regions["ulog"]
        # The bump pointer is volatile CPU state: recovery re-derives it
        # by scanning, so it is never written through (one reason this
        # version's metadata traffic stays low).
        self._log_pointer = 0
        if fresh:
            self.control.write_u64(_COMMIT_SEQ, 0)

    @property
    def commit_sequence(self) -> int:
        return self.control.read_u64(_COMMIT_SEQ)

    @property
    def log_pointer(self) -> int:
        return self._log_pointer

    def _epoch(self) -> int:
        """The epoch stamped into records of the current transaction."""
        return self.commit_sequence & _EPOCH_MASK

    # -- hooks ---------------------------------------------------------------

    def _on_set_range(self, offset: int, length: int) -> None:
        record = self._log_pointer
        if record + HEADER_BYTES + length > self.log_region.size:
            raise AllocationError(
                f"undo log full: need {HEADER_BYTES + length} bytes at "
                f"{record} of {self.log_region.size}"
            )
        self.counters.bump_allocs += 1
        # Header then pre-image, adjacent: two stores, one run.
        self.log_region.write_run(record, (
            (_HEADER.pack(offset, length, self._epoch()), WriteCategory.META),
            (self.db.read(offset, length), WriteCategory.UNDO),
        ))
        self._log_pointer = record + HEADER_BYTES + length
        self.counters.undo_bytes_copied += length
        self.profile.touch_random("ulog", record, HEADER_BYTES + length)

    def _on_commit(self) -> None:
        # One control write both commits the transaction and invalidates
        # every live record (their epoch is now stale).
        self.control.write_u64(_COMMIT_SEQ, self.commit_sequence + 1)
        self._log_pointer = 0

    def _parse_log(self) -> List[Tuple[int, int, int]]:
        """Scan live records from the base: (db offset, length, payload
        offset) in append order. A record is live while its epoch
        matches the current commit sequence and its header is sane."""
        entries = []
        epoch = self._epoch()
        cursor = 0
        limit = self.log_region.size
        while cursor + HEADER_BYTES <= limit:
            offset, length, record_epoch = _HEADER.unpack(
                self.log_region.read(cursor, HEADER_BYTES)
            )
            if record_epoch != epoch:
                break
            if length == 0 or cursor + HEADER_BYTES + length > limit:
                break
            if offset + length > self.db.size:
                break
            entries.append((offset, length, cursor + HEADER_BYTES))
            cursor += HEADER_BYTES + length
        return entries

    def _rollback(self) -> None:
        entries = self._parse_log()
        # Reverse order: the oldest pre-image of an overlapping range
        # must be re-installed last.
        for offset, length, payload in reversed(entries):
            pre_image = self.log_region.read(payload, length)
            self.db.write(offset, pre_image, WriteCategory.MODIFIED)
            self.counters.rollback_bytes += length
        # Invalidate the rolled-back records and reset the pointer.
        self.control.write_u64(_COMMIT_SEQ, self.commit_sequence + 1)
        self._log_pointer = 0

    def _on_abort(self) -> None:
        self._rollback()

    def _on_recover(self) -> None:
        self._rollback()
