"""``close()`` on the replicated systems: the explicit end of a pair's
life. A closed pair is torn down like a crashed one on *both* nodes —
it can never run on silently unreplicated — and what it measured stays
readable. The region-lifetime side (nothing left for the cyclic
collector) is ``tests/experiments/test_cell_lifetime.py``."""

import copy

import pytest

from repro.errors import CrashedError, NotMappedError, ReproError
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import ENGINE_VERSIONS, EngineConfig
from repro.workloads import DebitCreditWorkload, run_workload

DB_BYTES = 4 << 20  # Debit-Credit needs more than 2 MB
CONFIG = EngineConfig(db_bytes=DB_BYTES, log_bytes=64 * 1024, range_records=64)

SYSTEMS = {f"passive-{version}": version for version in ENGINE_VERSIONS}
SYSTEMS["active"] = None


@pytest.fixture(params=sorted(SYSTEMS))
def measured(request):
    """A driven pair, its workload and the run's result — not yet closed."""
    version = SYSTEMS[request.param]
    system = (
        ActiveReplicatedSystem(CONFIG) if version is None
        else PassiveReplicatedSystem(version, CONFIG)
    )
    workload = DebitCreditWorkload(DB_BYTES, seed=3)
    workload.setup(system)
    system.sync_initial()
    return system, workload, run_workload(system, workload, 20, warmup=2)


def _interfaces(system):
    if isinstance(system, ActiveReplicatedSystem):
        return [system.primary_interface, system.backup_interface]
    return [system.interface]


def test_closed_system_refuses_every_transaction_and_region_access(measured):
    system, workload, _ = measured
    system.close()
    # begin_transaction only flips volatile engine state (as on a
    # crashed node); no transaction gets past its first region access.
    with pytest.raises(CrashedError):
        workload.run_transaction(system)
    for call in (
        lambda: system.set_range(0, 8),
        lambda: system.write(0, b"x" * 8),
        lambda: system.commit_transaction(),
        lambda: system.read(0, 8),
        lambda: system.failover(),
    ):
        with pytest.raises(ReproError):
            call()
    for rio in (system.primary_rio, system.backup_rio):
        assert rio.crashed
        for region in rio.regions():
            with pytest.raises(CrashedError):
                region.read(0, 1)
            with pytest.raises(CrashedError):
                region.write(0, b"x")


def test_close_unmaps_the_transmit_windows(measured):
    system, _, _ = measured
    stale = [m for interface in _interfaces(system) for m in interface.mappings]
    assert stale
    system.close()
    assert all(interface.mappings == [] for interface in _interfaces(system))
    for mapping in stale:
        with pytest.raises(NotMappedError):
            mapping.write(0, b"x" * 8)


def test_close_detaches_the_bindings():
    system = PassiveReplicatedSystem("v1", CONFIG)
    bindings = list(system.replica.bindings)
    assert bindings
    system.close()
    assert system.replica.bindings == []
    assert not any(binding.local._observers for binding in bindings)


def test_close_twice_is_a_noop(measured):
    system, _, _ = measured
    system.close()
    crashes = (system.primary_rio.crash_count, system.backup_rio.crash_count)
    system.close()
    assert crashes == (1, 1) == (
        system.primary_rio.crash_count, system.backup_rio.crash_count
    )


def test_close_after_failover_is_allowed(measured):
    system, _, _ = measured
    system.fail_primary()
    system.failover()
    system.close()
    assert system.backup_rio.crashed


def test_what_a_closed_system_measured_stays_readable(measured):
    system, _, result = measured
    before = copy.deepcopy(result)
    system.close()
    assert result == before
    assert result.transactions == 20
    assert result.packets_per_txn().packets > 0
    assert result.traffic_per_txn()["total"] > 0
