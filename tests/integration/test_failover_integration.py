"""End-to-end failover: real workloads, crash injection at many
points, heartbeat-driven takeover, service continuation."""

import pytest

from repro.cluster.membership import HeartbeatMonitor, Membership
from repro.cluster.node import Node
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.sim.engine import Simulator
from repro.vista import ENGINE_VERSIONS, EngineConfig
from repro.workloads import DebitCreditWorkload, OrderEntryWorkload, run_workload

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024, range_records=256)


@pytest.mark.parametrize("version", list(ENGINE_VERSIONS))
@pytest.mark.parametrize("crash_at", [1, 7, 40])
def test_passive_failover_under_debit_credit(version, crash_at):
    system = PassiveReplicatedSystem(version, CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=13)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, crash_at)
    system.fail_primary()  # crash right after commit ``crash_at``
    assert result.transactions == crash_at
    backup = system.failover()
    workload.verify(backup)  # shadow model agrees with the backup


@pytest.mark.parametrize("version", ["v0", "v3"])
def test_passive_failover_under_order_entry(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    workload = OrderEntryWorkload(CONFIG.db_bytes, seed=13)
    workload.setup(system)
    system.sync_initial()
    run_workload(system, workload, 25)
    system.fail_primary()
    backup = system.failover()
    workload.verify(backup)


def test_active_failover_under_order_entry():
    system = ActiveReplicatedSystem(CONFIG)
    workload = OrderEntryWorkload(CONFIG.db_bytes, seed=13)
    workload.setup(system)
    system.sync_initial()
    run_workload(system, workload, 30)
    system.fail_primary()
    backup = system.failover()
    workload.verify(backup)


def test_backup_continues_serving_the_workload():
    """After takeover the backup runs the same workload stream on."""
    system = PassiveReplicatedSystem("v3", CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=21)
    workload.setup(system)
    system.sync_initial()
    for _ in range(20):
        workload.run_transaction(system)
    system.fail_primary()
    backup = system.failover()
    for _ in range(20):
        workload.run_transaction(backup)
    workload.verify(backup)
    assert workload.transactions_run == 40


def test_heartbeat_driven_takeover_end_to_end():
    """Crash detection (membership extension) wired to real failover."""
    sim = Simulator()
    primary_node = Node("primary")
    system = ActiveReplicatedSystem(CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=5)
    workload.setup(system)
    system.sync_initial()
    for _ in range(10):
        workload.run_transaction(system)

    view = Membership(members=["primary", "backup"], primary="primary")
    takeover = {}

    def on_failure():
        view.fail("primary")
        takeover["engine"] = system.failover()
        takeover["at"] = sim.now

    monitor = HeartbeatMonitor(sim, primary_node, on_failure,
                               interval_us=100.0, timeout_us=400.0)
    monitor.start()

    def crash_everything():
        primary_node.crash()
        system.fail_primary()

    sim.schedule_at(1_000.0, crash_everything)
    sim.run(until=5_000.0)

    assert view.primary == "backup"
    assert 1_000.0 < takeover["at"] <= 1_000.0 + 400.0 + 100.0 + 1e-9
    workload.verify(takeover["engine"])


def test_rebooted_primary_can_recover_locally():
    """After the original primary reboots, Rio still has its data and a
    local recovery yields the committed state (Vista's availability
    story, now with the gap covered by the backup)."""
    system = PassiveReplicatedSystem("v3", CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=3)
    workload.setup(system)
    system.sync_initial()
    for _ in range(15):
        workload.run_transaction(system)
    system.begin_transaction()
    system.set_range(0, 8)
    system.write(0, b"dangling")
    system.fail_primary()
    # Reboot the old primary and recover in place.
    system.primary_rio.reboot()
    from repro.vista.factory import create_engine

    recovered = create_engine("v3", system.primary_rio, CONFIG, fresh=False)
    recovered.recover()
    workload.verify(recovered)
