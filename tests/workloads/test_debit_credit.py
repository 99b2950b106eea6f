"""Debit-Credit: TPC-B shape, audit-trail circularity, invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.rio import RioMemory
from repro.vista import EngineConfig, create_engine
from repro.workloads.debit_credit import (
    AUDIT_BYTES,
    AUDIT_SLOT_BYTES,
    DebitCreditWorkload,
    TELLERS_PER_BRANCH,
)

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=256 * 1024)


def make(seed=7):
    engine = create_engine("v3", RioMemory(f"dc-{seed}"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=seed)
    workload.setup(engine)
    return engine, workload


def test_layout_shape():
    _engine, workload = make()
    assert workload.tellers.records == (
        workload.branches.records * TELLERS_PER_BRANCH
    )
    assert workload.accounts.records > 10 * workload.tellers.records
    assert workload.audit_size == AUDIT_BYTES
    assert workload.layout._cursor <= CONFIG.db_bytes


def test_too_small_database_rejected():
    with pytest.raises(ConfigurationError):
        DebitCreditWorkload(AUDIT_BYTES)


def test_transactions_update_three_balances_and_audit():
    engine, workload = make()
    workload.run_transaction(engine)
    per_txn = engine.counters.per_transaction()
    assert engine.counters.set_ranges == 4
    assert engine.counters.db_writes == 4
    assert engine.counters.db_bytes_written == 3 * 4 + 16


def test_per_transaction_profile_matches_paper():
    """~28 modified bytes and ~62 undo bytes per transaction (the
    paper's Table 5 implies 28.3 / 64.9)."""
    engine, workload = make()
    for _ in range(200):
        workload.run_transaction(engine)
    per_txn = engine.counters.per_transaction()
    assert per_txn["db_bytes_written"] == pytest.approx(28, abs=1)
    assert per_txn["undo_bytes_copied"] == pytest.approx(62, abs=2)


def test_shadow_model_verification():
    engine, workload = make()
    for _ in range(100):
        workload.run_transaction(engine)
    workload.verify(engine)  # must not raise


def test_balance_sums_invariant():
    engine, workload = make()
    for _ in range(100):
        workload.run_transaction(engine)
    workload.consistency_check(engine)


def test_audit_trail_wraps_circularly():
    engine, workload = make()
    assert workload.audit_slots == AUDIT_BYTES // AUDIT_SLOT_BYTES
    # Force wraparound cheaply by pre-advancing the counter.
    workload.transactions_run = workload.audit_slots - 1
    before = workload.transactions_run
    workload.run_transaction(engine)
    workload.run_transaction(engine)  # this one reuses slot 0
    assert workload.transactions_run == before + 2


def test_deterministic_given_seed():
    engine_a, workload_a = make(seed=3)
    engine_b, workload_b = make(seed=3)
    for _ in range(50):
        workload_a.run_transaction(engine_a)
        workload_b.run_transaction(engine_b)
    assert engine_a.db.snapshot() == engine_b.db.snapshot()


def test_different_seeds_diverge():
    engine_a, workload_a = make(seed=1)
    engine_b, workload_b = make(seed=2)
    for _ in range(10):
        workload_a.run_transaction(engine_a)
        workload_b.run_transaction(engine_b)
    assert engine_a.db.snapshot() != engine_b.db.snapshot()


def test_teller_belongs_to_account_branch():
    """The paper: each transaction updates the balances in the
    *corresponding* branch and teller."""
    engine, workload = make()
    for _ in range(50):
        workload.run_transaction(engine)
    for name in ("teller",):
        for teller_id in workload.shadow["teller"]:
            assert 0 <= teller_id < workload.tellers.records


def test_verify_detects_corruption():
    engine, workload = make()
    for _ in range(20):
        workload.run_transaction(engine)
    # Corrupt one touched account balance behind the workload's back.
    account_id = next(iter(workload.shadow["account"]))
    engine.db.poke(
        workload.accounts.field_offset(account_id, "balance"),
        b"\x7f\x7f\x7f\x7f",
    )
    with pytest.raises(AssertionError):
        workload.verify(engine)
