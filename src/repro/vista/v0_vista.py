"""Version 0 — the original Vista library (Section 4.1).

A ``set_range`` allocates an undo record from the heap and links it
into the undo log, which is a linked list. A second heap allocation
holds the pre-image, filled by a bcopy from the database. Database
writes are in-place. On commit, a commit flag is set and the records
and pre-image buffers are freed; on abort (or crash recovery) the
pre-images are re-installed from the undo log.

Every allocator and list manipulation is a real write into the heap
region, so in a write-through replica all of this bookkeeping crosses
the SAN — that is the metadata avalanche of Tables 1 and 2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.memory.allocator import HeapAllocator, NULL
from repro.memory.region import WriteCategory
from repro.vista.api import EngineConfig, TransactionEngine

_RECORD_BYTES = 32  # next (8) | db offset (8) | length (8) | buffer (8)
_HEAD = 0  # control offset of the undo-list head
_COMMIT_SEQ = 8  # control offset of the commit sequence number


class VistaEngine(TransactionEngine):
    """Version 0: linked-list undo log with heap-allocated records."""

    VERSION = "v0"
    TITLE = "Version 0 (Vista)"
    REPLICATED = ("db", "control", "heap")
    LOCAL = ()

    @classmethod
    def _extra_region_specs(cls, config: EngineConfig) -> Dict[str, int]:
        return {"heap": config.log_bytes}

    @classmethod
    def working_sets(cls, config: EngineConfig):
        yield from super().working_sets(config)
        yield "heap", config.log_bytes

    def _setup(self, fresh: bool) -> None:
        self.heap_region = self.regions["heap"]
        self.heap = HeapAllocator(self.heap_region, fresh=fresh)
        if fresh:
            self.control.write_u64(_HEAD, NULL)
            self.control.write_u64(_COMMIT_SEQ, 0)

    @property
    def commit_sequence(self) -> int:
        return self.control.read_u64(_COMMIT_SEQ)

    # -- hooks ---------------------------------------------------------------

    def _on_set_range(self, offset: int, length: int) -> None:
        record = self.heap.malloc(_RECORD_BYTES)
        buffer = self.heap.malloc(length)
        self.counters.mallocs += 2

        write_field = self.heap_region.write_u64
        write_field(record, self.control.read_u64(_HEAD))  # next
        write_field(record + 8, offset)
        write_field(record + 16, length)
        write_field(record + 24, buffer)
        self.counters.list_ops += 1

        # bcopy the current contents of the range into the pre-image
        # buffer (this is "undo data" in the traffic tables).
        self.heap_region.write(
            buffer, self.db.read(offset, length), WriteCategory.UNDO
        )
        self.counters.undo_bytes_copied += length
        self.profile.touch_random("heap", buffer, length)

        self.control.write_u64(_HEAD, record)

    def _collect(self) -> List[Tuple[int, int, int, int]]:
        """Walk the undo list head-first (most recent range first)."""
        entries = []
        field = self.heap_region.read_u64
        record = self.control.read_u64(_HEAD)
        while record != NULL:
            entries.append(
                (record, field(record + 8), field(record + 16), field(record + 24))
            )
            record = field(record)  # next
            self.counters.walk_steps += 1
        return entries

    def _on_commit(self) -> None:
        entries = self._collect()
        # The commit point: detaching the list atomically commits.
        self.control.write_u64(_HEAD, NULL)
        self.control.write_u64(_COMMIT_SEQ, self.commit_sequence + 1)
        for record, _offset, _length, buffer in entries:
            self.heap.free(buffer)
            self.heap.free(record)
            self.counters.frees += 2
            self.counters.list_ops += 1
        self.counters.walk_steps += self.heap.walk_steps
        self.heap.walk_steps = 0

    def _rollback(self, reformat_heap: bool) -> None:
        entries = self._collect()
        # Head-first order re-installs the most recent pre-image first;
        # the oldest pre-image of an overlapping range lands last, which
        # is the correct LIFO undo order.
        for _record, offset, length, buffer in entries:
            pre_image = self.heap_region.read(buffer, length)
            self.db.write(offset, pre_image, WriteCategory.MODIFIED)
            self.counters.rollback_bytes += length
        self.control.write_u64(_HEAD, NULL)
        if reformat_heap:
            # After a crash the heap may hold a half-linked allocation;
            # since it only ever holds undo structures — all dead once
            # the rollback is applied — recovery reformats it.
            self.heap = HeapAllocator(self.heap_region, fresh=True)
        else:
            for _record, _offset, _length, buffer in reversed(entries):
                self.heap.free(buffer)
                self.heap.free(_record)
                self.counters.frees += 2

    def _on_abort(self) -> None:
        self._rollback(reformat_heap=False)

    def _on_recover(self) -> None:
        self._rollback(reformat_heap=True)
