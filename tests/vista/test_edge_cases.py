"""Edge cases across all engine versions: boundary ranges, giant
transactions, exhaustion, zero-fill semantics."""

import pytest

from repro.errors import AllocationError
from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine

CONFIG = EngineConfig(db_bytes=32 * 1024, log_bytes=512 * 1024)
ALL_VERSIONS = list(ENGINE_VERSIONS)


@pytest.fixture(params=ALL_VERSIONS)
def version(request):
    return request.param


def make(version, config=CONFIG):
    return create_engine(version, RioMemory(f"edge-{version}"), config)


def test_range_at_database_start_and_end(version):
    engine = make(version)
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"ATSTART!")
    engine.set_range(CONFIG.db_bytes - 8, 8)
    engine.write(CONFIG.db_bytes - 8, b"AT END!!")
    engine.commit_transaction()
    assert engine.read(0, 8) == b"ATSTART!"
    assert engine.read(CONFIG.db_bytes - 8, 8) == b"AT END!!"


def test_single_byte_range(version):
    engine = make(version)
    engine.begin_transaction()
    engine.set_range(100, 1)
    engine.write(100, b"x")
    engine.abort_transaction()
    assert engine.read(100, 1) == b"\x00"


def test_whole_database_range(version):
    config = EngineConfig(db_bytes=8 * 1024, log_bytes=64 * 1024)
    engine = make(version, config)
    engine.initialize_data(0, b"\x11" * config.db_bytes)
    engine.begin_transaction()
    engine.set_range(0, config.db_bytes)
    engine.write(0, b"\x22" * config.db_bytes)
    engine.abort_transaction()
    assert engine.read(0, config.db_bytes) == b"\x11" * config.db_bytes


def test_giant_transaction_many_ranges(version):
    engine = make(version)
    engine.begin_transaction()
    for index in range(200):
        offset = index * 128
        engine.set_range(offset, 16)
        engine.write(offset, bytes([index % 251 + 1]) * 16)
    engine.commit_transaction()
    for index in range(200):
        assert engine.read(index * 128, 16) == bytes([index % 251 + 1]) * 16


def test_giant_transaction_abort(version):
    engine = make(version)
    engine.begin_transaction()
    for index in range(200):
        offset = index * 128
        engine.set_range(offset, 16)
        engine.write(offset, b"\xff" * 16)
    engine.abort_transaction()
    assert engine.read(0, 4096) == b"\x00" * 4096


def test_repeated_range_on_same_offset(version):
    engine = make(version)
    engine.initialize_data(0, b"orig")
    engine.begin_transaction()
    for _ in range(10):
        engine.set_range(0, 4)
        engine.write(0, b"temp")
    engine.abort_transaction()
    assert engine.read(0, 4) == b"orig"


def test_write_smaller_than_range(version):
    engine = make(version)
    engine.initialize_data(0, b"ABCDEFGH")
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(2, b"xy")  # partial write inside the range
    engine.commit_transaction()
    assert engine.read(0, 8) == b"ABxyEFGH"


def test_undo_space_exhaustion_is_an_error_not_corruption(version):
    config = EngineConfig(db_bytes=32 * 1024, log_bytes=2048)
    engine = make(version, config)
    engine.begin_transaction()
    # Past V1/V2's 4,096-record coordinate array; V0/V3 fill the log
    # long before.
    with pytest.raises(AllocationError):
        for index in range(5000):
            engine.set_range((index * 64) % (config.db_bytes - 64), 64)
    # The transaction can still be aborted cleanly.
    engine.abort_transaction()
    assert engine.read(0, 64) == b"\x00" * 64


def test_commit_sequence_monotonic_across_recovery(version):
    rio = RioMemory(f"edge-seq-{version}")
    engine = create_engine(version, rio, CONFIG)
    for _ in range(5):
        engine.begin_transaction()
        engine.set_range(0, 4)
        engine.write(0, b"abcd")
        engine.commit_transaction()
    seq_before = engine.commit_sequence
    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    assert recovered.commit_sequence >= seq_before


def test_binary_data_round_trip(version):
    engine = make(version)
    payload = bytes(range(256))
    engine.begin_transaction()
    engine.set_range(512, 256)
    engine.write(512, payload)
    engine.commit_transaction()
    assert engine.read(512, 256) == payload
