"""Property-based tests of replication: after any committed prefix and
a crash, failover must reconstruct exactly the committed state."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import ENGINE_VERSIONS, EngineConfig

DB_BYTES = 4096
CONFIG = EngineConfig(db_bytes=DB_BYTES, log_bytes=64 * 1024)

versions = st.sampled_from(list(ENGINE_VERSIONS))


@st.composite
def committed_txns(draw):
    txns = []
    for _ in range(draw(st.integers(0, 6))):
        length = draw(st.integers(1, 48))
        offset = draw(st.integers(0, DB_BYTES - length))
        value = draw(st.binary(min_size=length, max_size=length))
        txns.append((offset, value))
    return txns


@st.composite
def dangling_txn(draw):
    length = draw(st.integers(1, 48))
    offset = draw(st.integers(0, DB_BYTES - length))
    value = draw(st.binary(min_size=length, max_size=length))
    return offset, value


def drive(system, txns):
    oracle = bytearray(DB_BYTES)
    for offset, value in txns:
        system.begin_transaction()
        system.set_range(offset, len(value))
        system.write(offset, value)
        system.commit_transaction()
        oracle[offset : offset + len(value)] = value
    return oracle


@given(version=versions, txns=committed_txns(), dangling=dangling_txn())
@settings(max_examples=40, deadline=None)
def test_passive_failover_equals_committed_state(version, txns, dangling):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.sync_initial()
    oracle = drive(system, txns)
    offset, value = dangling
    system.begin_transaction()
    system.set_range(offset, len(value))
    system.write(offset, value)  # never commits
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, DB_BYTES) == bytes(oracle)


@given(txns=committed_txns(), dangling=dangling_txn())
@settings(max_examples=40, deadline=None)
def test_active_failover_equals_committed_state(txns, dangling):
    system = ActiveReplicatedSystem(CONFIG, ring_bytes=512)
    system.sync_initial()
    oracle = drive(system, txns)
    offset, value = dangling
    system.begin_transaction()
    system.set_range(offset, len(value))
    system.write(offset, value)
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, DB_BYTES) == bytes(oracle)


@given(txns=committed_txns())
@settings(max_examples=30, deadline=None)
def test_active_backup_db_converges_to_primary(txns):
    system = ActiveReplicatedSystem(CONFIG, ring_bytes=512)
    system.sync_initial()
    drive(system, txns)
    system.applier.apply_available()
    assert system.backup_db.snapshot() == system.engine.db.snapshot()
