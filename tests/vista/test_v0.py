"""Version 0 specifics: linked-list undo log, heap allocation, and the
metadata write volume that motivates the paper's restructuring."""

from repro.memory.region import WriteCategory
from repro.memory.rio import RioMemory
from repro.vista import EngineConfig
from repro.vista.v0_vista import VistaEngine

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)


def make():
    return VistaEngine.create(RioMemory("v0"), CONFIG)


def test_set_range_allocates_two_heap_blocks():
    engine = make()
    engine.begin_transaction()
    engine.set_range(0, 16)
    assert engine.counters.mallocs == 2  # record + pre-image buffer
    engine.commit_transaction()
    assert engine.counters.frees == 2


def test_undo_list_links_records_lifo():
    engine = make()
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.set_range(16, 8)
    entries = engine._collect()
    assert [entry[1] for entry in entries] == [16, 0]  # head-first
    engine.commit_transaction()
    assert engine._collect() == []


def test_commit_sequence_increments():
    engine = make()
    for _ in range(3):
        engine.begin_transaction()
        engine.set_range(0, 4)
        engine.write(0, b"abcd")
        engine.commit_transaction()
    assert engine.commit_sequence == 3


def test_metadata_writes_dominate():
    """The structural point of Table 2: V0's bookkeeping writes far
    exceed the data it protects."""
    engine = make()
    by_category = {category: 0 for category in WriteCategory}

    def count(offset, length, category):
        by_category[category] += length

    for region in engine.regions.values():
        region.add_observer(count)
    for index in range(20):
        engine.begin_transaction()
        engine.set_range(index * 16, 8)
        engine.write(index * 16, b"12345678")
        engine.commit_transaction()
    assert by_category[WriteCategory.META] > 5 * by_category[WriteCategory.UNDO]
    assert by_category[WriteCategory.UNDO] == 20 * 8


def test_heap_reformatted_after_crash_recovery():
    rio = RioMemory("v0-crash")
    engine = VistaEngine.create(rio, CONFIG)
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"xxxxxxxx")
    rio.crash()
    rio.reboot()
    recovered = VistaEngine.create(rio, CONFIG, fresh=False)
    recovered.recover()
    # The whole heap is available again after recovery.
    big = recovered.heap.malloc(CONFIG.log_bytes // 2)
    assert big > 0


def test_walk_steps_counted_on_commit():
    engine = make()
    engine.begin_transaction()
    for offset in range(0, 64, 8):
        engine.set_range(offset, 8)
    engine.commit_transaction()
    assert engine.counters.walk_steps >= 8
