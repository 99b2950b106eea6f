"""Version 1 — mirroring by copying (Section 4.2).

The linked-list undo log is replaced by an array of set_range
coordinates allocated by incrementing an index, and a mirror copy of
the database is maintained. Writes go to the database in-place; at
commit each declared range is copied from the database into the
mirror, so the mirror always holds the last committed state. Undo
(abort or recovery) copies the declared ranges back from the mirror.

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
_COMMIT_SEQ = 8
_RESTORE_CHUNK = 1 << 20


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
            "ranges": 8 + config.range_records * _RANGE_RECORD_BYTES,
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
        entries = []
        for index in range(self.range_array.count):
            record = self.range_array.record_offset(index)
            entries.append((
                self.ranges_region.read_u64(record),
                self.ranges_region.read_u64(record + 8),
            ))
        return entries

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
        self.range_array.truncate(0)

    def _restore_ranges(self) -> None:
        for offset, length in reversed(self._declared_ranges()):
            self.db.copy_from(self.mirror, offset, offset, length,
                              WriteCategory.MODIFIED)
            self.counters.rollback_bytes += length
        self.range_array.truncate(0)

    def _on_abort(self) -> None:
        self._restore_ranges()

    def _on_recover(self) -> None:
        self._restore_ranges()

    def restore_from_mirror(self) -> None:
        """Whole-database restore used by a backup that does not have
        the coordinate array (the Section 5.1 optimization): copy the
        entire mirror over the database."""
        for offset in range(0, self.db.size, _RESTORE_CHUNK):
            chunk = min(_RESTORE_CHUNK, self.db.size - offset)
            # poke accepts any bytes-like; the view avoids one
            # chunk-sized intermediate copy per iteration.
            self.db.poke(offset, self.mirror.view(offset, chunk))
        self.counters.rollback_bytes += self.db.size
        self.range_array.truncate(0)
        self._active = False
        self.counters.recoveries += 1
