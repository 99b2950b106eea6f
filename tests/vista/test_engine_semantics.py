"""Transactional semantics that every version must satisfy: commit
durability, abort rollback, crash recovery, overlapping ranges."""

import pytest

from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)
ALL_VERSIONS = list(ENGINE_VERSIONS)


def fresh(version, name="sem"):
    rio = RioMemory(f"{name}-{version}")
    return rio, create_engine(version, rio, CONFIG)


@pytest.fixture(params=ALL_VERSIONS)
def version(request):
    return request.param


def test_commit_makes_writes_durable(version):
    _rio, engine = fresh(version)
    engine.begin_transaction()
    engine.set_range(64, 16)
    engine.write(64, b"A" * 16)
    engine.commit_transaction()
    assert engine.read(64, 16) == b"A" * 16


def test_abort_rolls_back_to_pre_transaction_state(version):
    _rio, engine = fresh(version)
    engine.initialize_data(64, b"original++++++++")
    engine.begin_transaction()
    engine.set_range(64, 16)
    engine.write(64, b"B" * 16)
    engine.abort_transaction()
    assert engine.read(64, 16) == b"original++++++++"


def test_abort_with_multiple_ranges(version):
    _rio, engine = fresh(version)
    engine.initialize_data(0, b"aaaabbbbcccc")
    engine.begin_transaction()
    for offset in (0, 4, 8):
        engine.set_range(offset, 4)
        engine.write(offset, b"XXXX")
    engine.abort_transaction()
    assert engine.read(0, 12) == b"aaaabbbbcccc"


def test_abort_of_read_only_transaction(version):
    _rio, engine = fresh(version)
    engine.begin_transaction()
    engine.abort_transaction()
    assert engine.counters.aborts == 1


def test_overlapping_set_ranges_roll_back_correctly(version):
    """Nested/overlapping declarations: LIFO undo must re-install the
    oldest pre-image last."""
    _rio, engine = fresh(version)
    engine.initialize_data(0, b"0123456789")
    engine.begin_transaction()
    engine.set_range(0, 10)
    engine.write(0, b"AAAAAAAAAA")
    engine.set_range(2, 4)  # overlapping range, captures "AAAA"
    engine.write(2, b"BBBB")
    engine.abort_transaction()
    assert engine.read(0, 10) == b"0123456789"


def test_set_range_after_write_preserves_new_value_on_commit(version):
    _rio, engine = fresh(version)
    engine.begin_transaction()
    engine.set_range(0, 4)
    engine.write(0, b"WXYZ")
    engine.commit_transaction()
    engine.begin_transaction()
    engine.set_range(0, 4)
    engine.write(0, b"1234")
    engine.commit_transaction()
    assert engine.read(0, 4) == b"1234"


def test_crash_mid_transaction_recovers_committed_state(version):
    rio, engine = fresh(version)
    engine.initialize_data(0, b"committed!")
    engine.begin_transaction()
    engine.set_range(0, 10)
    engine.write(0, b"uncommitte")
    # Crash: lose all volatile state, keep Rio regions.
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    assert recovered.read(0, 10) == b"committed!"


def test_crash_between_transactions_loses_nothing(version):
    rio, engine = fresh(version)
    engine.begin_transaction()
    engine.set_range(0, 4)
    engine.write(0, b"keep")
    engine.commit_transaction()
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    assert recovered.read(0, 4) == b"keep"


def test_recovery_is_idempotent(version):
    rio, engine = fresh(version)
    engine.initialize_data(0, b"stable")
    engine.begin_transaction()
    engine.set_range(0, 6)
    engine.write(0, b"dirty!")
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    recovered.recover()
    assert recovered.read(0, 6) == b"stable"


def test_engine_usable_after_recovery(version):
    rio, engine = fresh(version)
    engine.begin_transaction()
    engine.set_range(0, 4)
    engine.write(0, b"lost")
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    recovered.begin_transaction()
    recovered.set_range(0, 4)
    recovered.write(0, b"good")
    recovered.commit_transaction()
    assert recovered.read(0, 4) == b"good"


def test_many_transactions_no_resource_leak(version):
    """Allocator state must fully recycle between transactions."""
    _rio, engine = fresh(version)
    for index in range(300):
        engine.begin_transaction()
        offset = (index * 32) % 4096
        engine.set_range(offset, 24)
        engine.write(offset, bytes([index % 251 + 1]) * 24)
        engine.commit_transaction()
    assert engine.counters.commits == 300


def test_alternating_commit_abort(version):
    _rio, engine = fresh(version)
    engine.initialize_data(0, b"\x00" * 64)
    expected = bytearray(64)
    for index in range(50):
        engine.begin_transaction()
        offset = (index * 8) % 56
        engine.set_range(offset, 8)
        value = bytes([index % 250 + 1]) * 8
        engine.write(offset, value)
        if index % 2 == 0:
            engine.commit_transaction()
            expected[offset : offset + 8] = value
        else:
            engine.abort_transaction()
    assert engine.read(0, 64) == bytes(expected)


STALE_HEADER_CONFIG = EngineConfig(db_bytes=4096, log_bytes=64 * 1024)


def _stale_header_history(engine):
    """A history after which V3's log holds, past its live records, a
    stale header at a misaligned offset that reads ``(0, 51, epoch)``
    with the current epoch: the scan must not roll committed byte 50
    back through it. Leaves the last transaction in flight."""
    for _ in range(2):
        engine.begin_transaction()
        engine.set_range(0, 1)
        engine.commit_transaction()
    engine.begin_transaction()
    for offset, length in ((0, 1), (0, 44), (0, 64)):
        engine.set_range(offset, length)
    engine.write(39, bytes(11) + b"\x01")
    engine.set_range(51, 3)
    engine.commit_transaction()
    engine.begin_transaction()
    for offset, length in ((0, 5), (0, 50), (0, 50)):
        engine.set_range(offset, length)


def test_abort_ignores_a_stale_misaligned_header(version):
    rio = RioMemory(f"stale-header-{version}")
    engine = create_engine(version, rio, STALE_HEADER_CONFIG)
    _stale_header_history(engine)
    committed = engine.read(0, 4096)
    assert committed[50] == 1
    engine.abort_transaction()
    assert engine.read(0, 4096) == committed


def test_recovery_ignores_a_stale_misaligned_header(version):
    rio = RioMemory(f"stale-header-crash-{version}")
    engine = create_engine(version, rio, STALE_HEADER_CONFIG)
    _stale_header_history(engine)
    committed = engine.read(0, 4096)
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, STALE_HEADER_CONFIG, fresh=False)
    recovered.recover()
    assert recovered.read(0, 4096) == committed
