"""Passive-backup systems: per-version replicated sets, failover
recovery to the last committed state, traffic characteristics."""

import pytest

from repro.errors import FailoverError, ReproError
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import ENGINE_VERSIONS, EngineConfig

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)
ALL_VERSIONS = list(ENGINE_VERSIONS)


def run_txns(system, count=5, width=16):
    for index in range(count):
        system.begin_transaction()
        offset = index * 64
        system.set_range(offset, width)
        system.write(offset, bytes([index + 1]) * width)
        system.commit_transaction()


@pytest.fixture(params=ALL_VERSIONS)
def version(request):
    return request.param


def test_failover_preserves_all_committed_transactions(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.sync_initial()
    run_txns(system, 5)
    system.fail_primary()
    backup = system.failover()
    for index in range(5):
        assert backup.read(index * 64, 16) == bytes([index + 1]) * 16


def test_failover_rolls_back_uncommitted_transaction(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.initialize_data(0, b"X" * 16)
    system.sync_initial()
    run_txns(system, 3)
    system.begin_transaction()
    system.set_range(0, 16)
    system.write(0, b"Z" * 16)  # never committed
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, 16) == b"\x01" * 16  # txn 0's committed value


def test_failover_after_abort(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.initialize_data(0, b"base")
    system.sync_initial()
    system.begin_transaction()
    system.set_range(0, 4)
    system.write(0, b"junk")
    system.abort_transaction()
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, 4) == b"base"


def test_double_failover_rejected(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.sync_initial()
    system.fail_primary()
    system.failover()
    with pytest.raises(FailoverError):
        system.failover()


def test_backup_engine_can_serve_transactions(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    system.sync_initial()
    run_txns(system, 2)
    system.fail_primary()
    backup = system.failover()
    backup.begin_transaction()
    backup.set_range(0, 8)
    backup.write(0, b"newprim!")
    backup.commit_transaction()
    assert backup.read(0, 8) == b"newprim!"


def test_replicated_region_set_matches_version(version):
    system = PassiveReplicatedSystem(version, CONFIG)
    expected = set(ENGINE_VERSIONS[version].REPLICATED)
    assert set(system.replicated_names) == expected


def test_mirror_versions_do_not_ship_range_array():
    system = PassiveReplicatedSystem("v1", CONFIG)
    system.sync_initial()
    run_txns(system, 3)
    mapped = {mapping.name for mapping in system.interface._mappings}
    assert "ranges" not in mapped
    assert "mirror" in mapped


def test_ship_undo_log_ablation_ships_range_array():
    system = PassiveReplicatedSystem("v1", CONFIG, ship_undo_log=True)
    system.sync_initial()
    run_txns(system, 3)
    mapped = {mapping.name for mapping in system.interface._mappings}
    assert "ranges" in mapped
    # And failover then uses ordinary recovery, not a full restore.
    system.begin_transaction()
    system.set_range(0, 8)
    system.write(0, b"junkjunk")
    system.fail_primary()
    backup = system.failover()
    assert backup.read(0, 8) == b"\x01" * 8


def test_v0_ships_heap_metadata():
    system = PassiveReplicatedSystem("v0", CONFIG)
    system.sync_initial()
    run_txns(system, 5)
    traffic = {category.value: count for category, count
               in system.interface.bytes_by_category.items()}
    assert traffic["meta"] > traffic["modified"] + traffic["undo"]


def test_v3_traffic_has_no_mirror_fragmentation():
    """V3's undo stream must coalesce (its packets are much larger on
    average than V1's for identical transactions)."""
    results = {}
    for version in ("v1", "v3"):
        system = PassiveReplicatedSystem(version, CONFIG)
        system.sync_initial()
        run_txns(system, 10)
        results[version] = system.interface.trace.mean_packet_bytes()
    assert results["v3"] > 1.5 * results["v1"]


def test_commit_is_one_safe_not_blocking():
    """Commit must not wait for anything from the backup: there is no
    acknowledgment path at all in the passive scheme."""
    system = PassiveReplicatedSystem("v3", CONFIG)
    system.sync_initial()
    run_txns(system, 1)
    # The backup has the data purely via write-through.
    assert system.backup_rio.get_region("db").read(0, 16) == b"\x01" * 16


def test_operations_after_crash_raise():
    from repro.errors import CrashedError

    system = PassiveReplicatedSystem("v3", CONFIG)
    system.sync_initial()
    system.fail_primary()
    with pytest.raises(CrashedError):
        run_txns(system, 1)


def test_set_range_write_and_read_are_the_engines(version):
    """The pair's ``set_range``, ``write`` and ``read`` are the primary
    engine's own bound methods: the same results and counters before a
    takeover, the same errors after it."""
    system = PassiveReplicatedSystem(version, CONFIG)
    system.sync_initial()
    engine = system.engine
    assert system.set_range == engine.set_range
    assert system.write == engine.write
    assert system.read == engine.read
    system.begin_transaction()
    system.set_range(64, 8)
    system.write(64, b"ABCDEFGH")
    assert (engine.counters.set_ranges, engine.counters.db_writes) == (1, 1)
    assert system.read(64, 8) == engine.read(64, 8) == b"ABCDEFGH"
    system.commit_transaction()
    system.fail_primary()
    system.failover()
    for call in (lambda target: target.read(64, 8),
                 lambda target: target.set_range(64, 8)):
        errors = []
        for target in (system, engine):
            with pytest.raises(ReproError) as caught:
                call(target)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
