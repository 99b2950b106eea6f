"""The RVM API state machine, shared by all four engine versions."""

import dataclasses

import pytest

from repro.errors import (
    NoTransactionError,
    OutOfBoundsError,
    RangeNotDeclaredError,
    TransactionAlreadyActiveError,
)
from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)

ALL_VERSIONS = list(ENGINE_VERSIONS)


def make_engine(version):
    return create_engine(version, RioMemory(f"api-{version}"), CONFIG)


@pytest.fixture(params=ALL_VERSIONS)
def engine(request):
    return make_engine(request.param)


def test_begin_twice_rejected(engine):
    engine.begin_transaction()
    with pytest.raises(TransactionAlreadyActiveError):
        engine.begin_transaction()


def test_operations_outside_transaction_rejected(engine):
    def refused(operation):
        message = f"{engine.VERSION}: {operation} outside a transaction"
        return pytest.raises(NoTransactionError, match=f"^{message}$")

    with refused("set_range"):
        engine.set_range(0, 8)
    with refused("write"):
        engine.write(0, b"x")
    with refused("commit_transaction"):
        engine.commit_transaction()
    with refused("abort_transaction"):
        engine.abort_transaction()


def test_read_allowed_outside_transaction(engine):
    assert engine.read(0, 4) == b"\x00" * 4


def test_set_range_bounds_checked(engine):
    engine.begin_transaction()
    with pytest.raises(OutOfBoundsError):
        engine.set_range(-1, 8)
    with pytest.raises(OutOfBoundsError):
        engine.set_range(0, 0)
    with pytest.raises(OutOfBoundsError):
        engine.set_range(CONFIG.db_bytes - 4, 8)


def test_write_requires_covering_range(engine):
    engine.begin_transaction()
    engine.set_range(100, 8)
    engine.write(100, b"12345678")
    image = engine.db.snapshot()
    counters = dataclasses.asdict(engine.counters)
    stores = (engine.db.writes_observed, engine.db.bytes_written)
    with pytest.raises(RangeNotDeclaredError):
        engine.write(200, b"x")
    with pytest.raises(RangeNotDeclaredError):
        engine.write(104, b"12345678")  # straddles the range end
    # A refused write stores nothing and moves no counter.
    assert engine.db.snapshot() == image
    assert dataclasses.asdict(engine.counters) == counters
    assert (engine.db.writes_observed, engine.db.bytes_written) == stores
    engine.abort_transaction()


def test_in_transaction_flag(engine):
    assert not engine._active
    engine.begin_transaction()
    assert engine._active
    engine.commit_transaction()
    assert not engine._active


def test_initialize_data_rejected_inside_transaction(engine):
    engine.begin_transaction()
    with pytest.raises(TransactionAlreadyActiveError):
        engine.initialize_data(0, b"x")


def test_counters_track_transactions(engine):
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"12345678")
    engine.commit_transaction()
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.abort_transaction()
    assert engine.counters.transactions == 2
    assert engine.counters.commits == 1
    assert engine.counters.aborts == 1
    assert engine.counters.set_ranges == 2
    assert engine.counters.db_writes == 1
    assert engine.counters.db_bytes_written == 8


def test_region_specs_cover_required_regions():
    for version, cls in ENGINE_VERSIONS.items():
        specs = cls.region_specs(CONFIG)
        assert "db" in specs and "control" in specs
        for name in cls.REPLICATED + cls.LOCAL:
            assert name in specs, (version, name)


def test_sequential_hint_accepted(engine):
    from repro.vista.api import HINT_SEQUENTIAL

    engine.begin_transaction()
    engine.set_range(0, 64, hint=HINT_SEQUENTIAL)
    engine.commit_transaction()
    assert engine.profile.sequential_bytes.get("db", 0) == 64
