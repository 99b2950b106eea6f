"""The workload driver: measurement collection, warmup, crash at a commit."""

import pytest

from repro.memory.rio import RioMemory
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig, create_engine
from repro.workloads import DebitCreditWorkload, run_workload

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=256 * 1024)


def test_standalone_run_collects_counters_and_profile():
    engine = create_engine("v3", RioMemory("drv"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(engine)
    result = run_workload(engine, workload, 100, verify=True)
    assert result.transactions == 100
    assert result.counters.commits == 100
    assert result.workload == "debit-credit"
    assert result.target_kind == "standalone-v3"
    assert result.profile.random_lines["db"] > 0
    assert result.packet_trace is None
    assert result.traffic_bytes == {}


def test_warmup_excluded_from_stats():
    engine = create_engine("v3", RioMemory("drv-warm"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(engine)
    result = run_workload(engine, workload, 50, warmup=25)
    assert result.counters.commits == 50  # warmup not counted
    assert workload.transactions_run == 75  # but it did run


def test_passive_run_collects_traffic():
    system = PassiveReplicatedSystem("v3", CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, 50)
    assert result.total_traffic_bytes > 0
    assert set(result.traffic_bytes) == {"modified", "undo", "meta"}
    assert result.packet_trace.packets > 0
    assert result.io_stores > 0
    per_txn = result.traffic_per_txn()
    assert per_txn["total"] == pytest.approx(
        result.total_traffic_bytes / 50
    )


def test_active_run_collects_redo_and_acks():
    system = ActiveReplicatedSystem(CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, 50)
    assert result.redo_records == 50 * 4  # 4 scattered writes per txn
    assert result.ack_bytes == 50 * 8
    assert "undo" not in result.traffic_bytes


def test_backup_holds_the_driven_commits_after_a_crash():
    system = PassiveReplicatedSystem("v3", CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, 20)
    system.fail_primary()  # crash right after the 20th commit
    assert not result.crashed
    assert result.transactions == 20
    backup = system.failover()
    # The backup holds the 20 committed transactions (its recovery pass
    # bumps the sequence once more while invalidating the log).
    assert backup.commit_sequence in (20, 21)


def test_scaled_accessors():
    engine = create_engine("v1", RioMemory("drv-scale"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(engine)
    result = run_workload(engine, workload, 10)
    per_txn_profile = result.profile_per_txn()
    assert per_txn_profile.random_lines["db"] == pytest.approx(
        result.profile.random_lines["db"] / 10
    )


def test_driver_rejects_engineless_target():
    with pytest.raises(TypeError):
        run_workload(object(), DebitCreditWorkload(4 * MB), 1)


def test_post_warmup_reset_is_in_place():
    """The driver must reset the engine's counters and profile *in
    place* after warmup — never swap in fresh objects — so anything
    holding the original references (an obs registry bridge, a
    dashboard) keeps seeing live steady-state counts."""
    engine = create_engine("v3", RioMemory("drv-inplace"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=1)
    workload.setup(engine)
    counters_before = engine.counters
    profile_before = engine.profile
    result = run_workload(engine, workload, 30, warmup=10)
    assert engine.counters is counters_before
    assert engine.profile is profile_before
    assert result.counters is counters_before
    # The held reference sees steady-state (post-warmup) counts...
    assert counters_before.commits == 30
    # ...and the profile was re-declared after its in-place clear.
    assert profile_before.working_set_bytes["db"] == engine.config.nominal
