"""Cross-module traffic invariants: the measured per-transaction
byte profiles that drive Tables 2/5/7, checked against both the
implementation's own structure and the paper's values."""

import pytest

from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig
from repro.workloads import DebitCreditWorkload, OrderEntryWorkload, run_workload

MB = 1024 * 1024
CONFIG = EngineConfig(
    db_bytes=4 * MB, nominal_db_bytes=50 * MB, log_bytes=512 * 1024,
)
TXNS = 300


def passive_traffic(version, workload_cls, seed=42):
    system = PassiveReplicatedSystem(version, CONFIG)
    workload = workload_cls(CONFIG.db_bytes, seed=seed)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, TXNS, warmup=30)
    return result.traffic_per_txn(), result


def active_traffic(workload_cls, seed=42):
    system = ActiveReplicatedSystem(CONFIG)
    workload = workload_cls(CONFIG.db_bytes, seed=seed)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, TXNS, warmup=30)
    return result.traffic_per_txn(), result


def test_debit_credit_per_txn_profile_matches_paper():
    """Paper Table 5 per transaction: ~28 B modified, ~65 B undo."""
    per_txn, _result = passive_traffic("v3", DebitCreditWorkload)
    assert per_txn["modified"] == pytest.approx(28.3, rel=0.10)
    assert per_txn["undo"] == pytest.approx(64.9, rel=0.10)


def test_order_entry_per_txn_profile_matches_paper():
    """Paper Table 5 per transaction: ~85 B modified, ~437 B undo."""
    per_txn, _result = passive_traffic("v3", OrderEntryWorkload)
    assert per_txn["modified"] == pytest.approx(85.1, rel=0.25)
    assert per_txn["undo"] == pytest.approx(437.1, rel=0.25)


def test_modified_and_undo_identical_across_versions():
    """V0, V1 and V3 ship identical modified and undo byte counts for
    the same transaction stream (paper Table 5 rows)."""
    profiles = {
        version: passive_traffic(version, DebitCreditWorkload)[0]
        for version in ("v0", "v1", "v3")
    }
    for category in ("modified", "undo"):
        values = {round(profiles[v][category], 1) for v in profiles}
        assert len(values) == 1, (category, profiles)


def test_v2_undo_equals_modified_bytes_roughly():
    """Diffing ships only changed words, so undo ~= modified (paper:
    exactly equal at their measurement granularity)."""
    per_txn, _result = passive_traffic("v2", DebitCreditWorkload)
    assert per_txn["undo"] <= per_txn["modified"] * 1.3 + 4


def test_active_ships_least_and_no_undo():
    passive_v2, _r1 = passive_traffic("v2", DebitCreditWorkload)
    active, _r2 = active_traffic(DebitCreditWorkload)
    assert "undo" not in active or active.get("undo", 0.0) == 0.0
    assert active["total"] < passive_v2["total"] * 1.5
    passive_v3, _r3 = passive_traffic("v3", DebitCreditWorkload)
    assert active["total"] < passive_v3["total"] / 1.8


def test_v0_metadata_is_an_order_of_magnitude_larger():
    v0, _r = passive_traffic("v0", DebitCreditWorkload)
    v3, _r = passive_traffic("v3", DebitCreditWorkload)
    assert v0["meta"] > 10 * v3["meta"]
    assert v0["meta"] > 1000  # ~1.4 kB/txn in both paper and repro


def test_packet_size_ordering_active_v3_mirrors():
    """Mean packet size: active redo > passive log > mirroring — the
    paper's coalescing story."""
    _p1, v1 = passive_traffic("v1", DebitCreditWorkload)
    _p3, v3 = passive_traffic("v3", DebitCreditWorkload)
    _pa, active = active_traffic(DebitCreditWorkload)
    mean_v1 = v1.packet_trace.mean_packet_bytes()
    mean_v3 = v3.packet_trace.mean_packet_bytes()
    mean_active = active.packet_trace.mean_packet_bytes()
    assert mean_active > mean_v3 > mean_v1


def test_order_entry_active_needs_more_redo_records_than_ranges():
    """Table 7's observation: redo meta-data describes scattered
    modified data, needing more records than set_range did."""
    system = ActiveReplicatedSystem(CONFIG)
    workload = OrderEntryWorkload(CONFIG.db_bytes, seed=42)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, TXNS)
    records_per_txn = result.redo_records / result.transactions
    ranges_per_txn = result.counters.set_ranges / result.transactions
    assert records_per_txn > ranges_per_txn * 0.9
