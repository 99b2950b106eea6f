"""A region holds host memory only for the pages a run writes.

Resident set sizes read from ``/proc/self/statm`` (Linux; skipped
elsewhere). Each check allows a few MiB for what the interpreter
allocates meanwhile, far below the 64 MiB a region would add if it
were resident.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.memory.region import MemoryRegion
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig

STATM = Path("/proc/self/statm")
pytestmark = pytest.mark.skipif(
    not STATM.exists(), reason="needs /proc/self/statm (Linux)")

MiB = 1 << 20
SIZE = 64 * MiB


def _resident_bytes() -> int:
    gc.collect()
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_a_fresh_region_is_not_resident():
    before = _resident_bytes()
    region = MemoryRegion("fresh", SIZE)
    assert _resident_bytes() - before < 4 * MiB
    assert region.read(SIZE - 8, 8) == bytes(8)


def test_loading_an_equal_image_writes_no_page():
    target = MemoryRegion("target", SIZE)
    source = MemoryRegion("source", SIZE)
    before = _resident_bytes()
    target.load_snapshot(source.view(0, SIZE))
    assert _resident_bytes() - before < 4 * MiB


def test_loading_an_image_writes_only_the_pages_that_differ():
    target = MemoryRegion("target", SIZE)
    source = MemoryRegion("source", SIZE)
    source.poke(SIZE // 2, b"\x01")
    before = _resident_bytes()
    target.load_snapshot(source.view(0, SIZE))
    assert _resident_bytes() - before < 4 * MiB
    assert target.read(SIZE // 2 - 8, 16) == source.read(SIZE // 2 - 8, 16)


def test_a_freed_region_does_not_come_back_resident():
    """Touched regions, freed, return their pages: the next region of
    the same size starts with none of them. (A C heap that took back a
    freed buffer would hand it to the next one of its size already
    resident, and zero it page by page.)"""
    for size in (8 * MiB, SIZE):
        before = _resident_bytes()
        for _ in range(3):
            touched = MemoryRegion("touched", size)
            touched.fill(0xA5)
            del touched
        fresh = MemoryRegion("fresh", size)
        assert _resident_bytes() - before < 4 * MiB
        assert fresh.read(size - 8, 8) == bytes(8)
        del fresh


def test_an_idle_passive_pair_syncs_and_fails_over_without_copying():
    """``sync_initial`` and a mirror engine's whole-database restore
    compare images page by page; zeros over zeros write nothing."""
    config = EngineConfig(db_bytes=SIZE, log_bytes=128 * 1024)
    system = PassiveReplicatedSystem("v1", config)
    before = _resident_bytes()
    system.sync_initial()
    system.fail_primary()
    engine = system.failover()
    assert _resident_bytes() - before < 8 * MiB
    assert engine.read(SIZE - 8, 8) == bytes(8)
