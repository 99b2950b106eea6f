"""Version 3 specifics: the epoch-validated inline log."""

import pytest

from repro.errors import AllocationError
from repro.memory.rio import RioMemory
from repro.vista import EngineConfig
from repro.vista.v3_inline_log import HEADER_BYTES, InlineLogEngine

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=4096)


def make(name="v3"):
    return InlineLogEngine.create(RioMemory(name), CONFIG)


def test_records_are_inline_and_contiguous():
    engine = make()
    engine.begin_transaction()
    engine.set_range(100, 8)
    engine.set_range(200, 16)
    entries = engine._parse_log()
    assert [(offset, length) for offset, length, _payload in entries] == [
        (100, 8), (200, 16),
    ]
    # Contiguous: second record starts where the first ends.
    assert entries[1][2] == entries[0][2] + 8 + HEADER_BYTES
    engine.commit_transaction()


def test_commit_resets_pointer_to_base():
    engine = make()
    engine.begin_transaction()
    engine.set_range(0, 32)
    assert engine.log_pointer > 0
    engine.write(0, b"\x01" * 32)
    engine.commit_transaction()
    assert engine.log_pointer == 0


def test_commit_invalidates_records_by_epoch():
    engine = make()
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.commit_transaction()
    # The bytes are still in the log region, but no longer live.
    assert engine._parse_log() == []


def test_stale_records_not_rolled_back_after_commit():
    rio = RioMemory("v3-stale")
    engine = InlineLogEngine.create(rio, CONFIG)
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"FINALVAL")
    engine.commit_transaction()
    # Crash immediately after commit: the old records are stale.
    rio.crash()
    rio.reboot()
    recovered = InlineLogEngine.create(rio, CONFIG, fresh=False)
    recovered.recover()
    assert recovered.read(0, 8) == b"FINALVAL"


def test_shorter_new_records_do_not_resurrect_old_tail():
    """A new transaction overwrites the log from the base with fewer
    bytes; the old transaction's trailing records must stay dead."""
    rio = RioMemory("v3-tail")
    engine = InlineLogEngine.create(rio, CONFIG)
    engine.initialize_data(0, b"A" * 64)
    engine.begin_transaction()
    for offset in range(0, 64, 8):  # 8 records
        engine.set_range(offset, 8)
        engine.write(offset, b"B" * 8)
    engine.commit_transaction()  # db is now all B
    engine.begin_transaction()
    engine.set_range(0, 8)  # 1 record, overwrites log prefix
    engine.write(0, b"C" * 8)
    rio.crash()
    rio.reboot()
    recovered = InlineLogEngine.create(rio, CONFIG, fresh=False)
    recovered.recover()
    # Only the first record rolls back; the stale 7 must not.
    assert recovered.read(0, 8) == b"B" * 8
    assert recovered.read(8, 56) == b"B" * 56


def test_log_exhaustion_raises():
    engine = make("v3-full")
    engine.begin_transaction()
    with pytest.raises(AllocationError):
        for offset in range(0, 64 * 1024, 64):
            engine.set_range(offset, 64)
    engine.abort_transaction()


def test_no_pointer_writes_in_log_region():
    """The paper-relevant property: V3's log region receives only
    record headers and pre-image payloads — never allocator-pointer
    updates — so its write-through stream is perfectly contiguous."""
    engine = make("v3-stream")
    offsets = []
    engine.log_region.add_observer(
        lambda offset, length, category: offsets.append((offset, length))
    )
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.set_range(100, 8)
    engine.commit_transaction()
    # Writes are strictly sequential from the log base.
    cursor = 0
    for offset, length in offsets:
        assert offset == cursor
        cursor += length


def test_epoch_survives_many_transactions():
    engine = make("v3-epochs")
    for index in range(100):
        engine.begin_transaction()
        engine.set_range(0, 8)
        engine.write(0, bytes([index % 250 + 1]) * 8)
        engine.commit_transaction()
    assert engine.commit_sequence == 100
    assert engine._parse_log() == []
