"""Property-based tests of the core transactional invariant.

For every engine version, every randomly generated schedule of
transactions (random ranges, random writes, commit/abort/crash at any
point), the database must always equal the state produced by an
oracle that applies only the committed transactions.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine

DB_BYTES = 4096
CONFIG = EngineConfig(db_bytes=DB_BYTES, log_bytes=64 * 1024)

versions = st.sampled_from(list(ENGINE_VERSIONS))


@st.composite
def transaction(draw):
    """One transaction: declared ranges with writes inside them, and a
    fate: commit, abort, or crash mid-flight."""
    n_ranges = draw(st.integers(1, 4))
    operations = []
    for _ in range(n_ranges):
        length = draw(st.integers(1, 64))
        offset = draw(st.integers(0, DB_BYTES - length))
        writes = []
        n_writes = draw(st.integers(0, 3))
        for _ in range(n_writes):
            write_length = draw(st.integers(1, length))
            write_offset = draw(st.integers(0, length - write_length))
            value = draw(st.binary(min_size=write_length, max_size=write_length))
            writes.append((offset + write_offset, value))
        operations.append(((offset, length), writes))
    fate = draw(st.sampled_from(["commit", "abort", "crash"]))
    return operations, fate


@st.composite
def schedule(draw):
    return draw(st.lists(transaction(), min_size=1, max_size=8))


def apply_to_oracle(oracle: bytearray, operations) -> None:
    for (_range, writes) in operations:
        for offset, value in writes:
            oracle[offset : offset + len(value)] = value


def stale_header_history(fate):
    """Two one-byte commits, then a commit that leaves a stale header
    reading ``(0, 51, epoch)`` at a misaligned offset of V3's log, then
    a transaction that ends in ``fate`` (see tests/vista's
    stale-header regression tests)."""
    one_byte = ([((0, 1), [])], "commit")
    return [
        one_byte,
        one_byte,
        ([((0, 1), []), ((0, 44), []),
          ((0, 64), [(39, bytes(11) + b"\x01")]), ((51, 3), [])], "commit"),
        ([((0, 5), []), ((0, 50), []), ((0, 50), [])], fate),
    ]


@given(version=versions, txns=schedule())
@example(version="v3", txns=stale_header_history("abort"))
@example(version="v3", txns=stale_header_history("crash"))
@settings(max_examples=60, deadline=None)
def test_database_always_equals_committed_oracle(version, txns):
    rio = RioMemory("prop")
    engine = create_engine(version, rio, CONFIG)
    oracle = bytearray(DB_BYTES)

    for operations, fate in txns:
        engine.begin_transaction()
        for (offset, length), writes in operations:
            engine.set_range(offset, length)
            for write_offset, value in writes:
                engine.write(write_offset, value)
        if fate == "commit":
            engine.commit_transaction()
            apply_to_oracle(oracle, operations)
        elif fate == "abort":
            engine.abort_transaction()
        else:  # crash mid-transaction, then recover
            rio.crash()
            rio.reboot()
            engine = create_engine(version, rio, CONFIG, fresh=False)
            engine.recover()
        assert engine.read(0, DB_BYTES) == bytes(oracle), (
            f"{version}: database diverged from committed oracle after "
            f"{fate}"
        )


@given(version=versions, txns=schedule(), crash_after=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_crash_at_any_transaction_boundary_recovers(version, txns, crash_after):
    rio = RioMemory("prop-boundary")
    engine = create_engine(version, rio, CONFIG)
    oracle = bytearray(DB_BYTES)

    for index, (operations, _fate) in enumerate(txns):
        if index == crash_after:
            break
        engine.begin_transaction()
        for (offset, length), writes in operations:
            engine.set_range(offset, length)
            for write_offset, value in writes:
                engine.write(write_offset, value)
        engine.commit_transaction()
        apply_to_oracle(oracle, operations)

    rio.crash()
    rio.reboot()
    recovered = create_engine(version, rio, CONFIG, fresh=False)
    recovered.recover()
    assert recovered.read(0, DB_BYTES) == bytes(oracle)
