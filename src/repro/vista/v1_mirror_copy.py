"""Version 1 — mirroring by copying (Section 4.2).

The linked-list undo log is replaced by an array of set_range
coordinates allocated by incrementing an index, and a mirror copy of
the database is maintained. Writes go to the database in-place; at
commit each declared range is copied from the database into the
mirror, so the mirror holds the last committed state. Undo (abort and
recovery share it) copies the declared ranges back from the mirror.
Nothing marks a commit before its copy loop ends, so a crash part-way
through a multi-range commit leaves the mirror torn: one range new,
another old (a known defect; fixing it needs a commit-intent store).

In the primary-backup configuration the coordinate array stays
primary-local (Section 5.1): the backup restores by copying the whole
mirror over the database, trading longer (rare) recovery for less
(common) communication.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.memory.allocator import ArrayAllocator
from repro.memory.region import MemoryRegion, WriteCategory
from repro.vista.api import EngineConfig, TransactionEngine

_RANGE_RECORD_BYTES = 16  # offset (8) | length (8)
_RANGE_RECORDS = 4096  # capacity of the set_range coordinate array
_COMMIT_SEQ = 8


class MirrorCopyEngine(TransactionEngine):
    """Version 1: set_range array + mirror refreshed by copying."""

    VERSION = "v1"
    TITLE = "Version 1 (Mirror by Copy)"
    REPLICATED = ("db", "control", "mirror")
    LOCAL = ("ranges",)

    @classmethod
    def _extra_region_specs(cls, config: EngineConfig) -> Dict[str, int]:
        return {
            "mirror": config.db_bytes,
            "ranges": 8 + _RANGE_RECORDS * _RANGE_RECORD_BYTES,
        }

    @classmethod
    def working_sets(cls, config: EngineConfig):
        yield from super().working_sets(config)
        yield "mirror", config.nominal

    def _setup(self, fresh: bool) -> None:
        self.mirror: MemoryRegion = self.regions["mirror"]
        self.ranges_region = self.regions["ranges"]
        self.range_array = ArrayAllocator(
            self.ranges_region, _RANGE_RECORD_BYTES, fresh=fresh
        )
        if fresh:
            self.control.write_u64(_COMMIT_SEQ, 0)

    @property
    def commit_sequence(self) -> int:
        return self.control.read_u64(_COMMIT_SEQ)

    def _on_initialize(self, offset: int, data: bytes) -> None:
        self.mirror.poke(offset, data)

    # -- range array ------------------------------------------------------

    def _record_range(self, offset: int, length: int) -> None:
        record = self.range_array.push()
        self.counters.array_pushes += 1
        self.ranges_region.write_u64(record, offset)
        self.ranges_region.write_u64(record + 8, length)

    def _declared_ranges(self) -> List[Tuple[int, int]]:
        read_u64 = self.ranges_region.read_u64
        first = ArrayAllocator.DATA_START
        end = first + self.range_array.count * _RANGE_RECORD_BYTES
        return [(read_u64(record), read_u64(record + 8))
                for record in range(first, end, _RANGE_RECORD_BYTES)]

    # -- hooks ---------------------------------------------------------------

    def _on_set_range(self, offset: int, length: int) -> None:
        self._record_range(offset, length)

    def _update_mirror(self, offset: int, length: int) -> None:
        """Refresh the mirror for one committed range (straight copy).

        ``copy_from`` moves the bytes region-to-region without the
        intermediate ``bytes`` a read-then-write pair materializes;
        observers and statistics see exactly the write the pair
        produced.
        """
        self.mirror.copy_from(self.db, offset, offset, length,
                              WriteCategory.UNDO)
        self.counters.undo_bytes_copied += length
        self.profile.touch_random("mirror", offset, length)

    def _on_commit(self) -> None:
        for offset, length in self._declared_ranges():
            self._update_mirror(offset, length)
        self.control.write_u64(_COMMIT_SEQ, self.commit_sequence + 1)
        self.range_array.truncate()

    def _on_recover(self) -> None:
        for offset, length in reversed(self._declared_ranges()):
            self.db.copy_from(self.mirror, offset, offset, length,
                              WriteCategory.MODIFIED)
            self.counters.rollback_bytes += length
        self.range_array.truncate()

    def restore_from_mirror(self) -> None:
        """Whole-database restore used by a backup that does not have
        the coordinate array (the Section 5.1 optimization): copy the
        entire mirror over the database."""
        self.db.load_snapshot(self.mirror.view(0, self.db.size))
        self.counters.rollback_bytes += self.db.size
        self.range_array.truncate()
        self._active = False
        self.counters.recoveries += 1
