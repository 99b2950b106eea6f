"""The throughput estimator: composition rules and SMP capping."""

import pytest

from repro.memory.rio import RioMemory
from repro.perf.calibration import DEFAULT_CALIBRATION, PAPER
from repro.perf.throughput import (
    ThroughputEstimator,
    ThroughputReport,
    calibrate_bases,
)
from repro.perf.costmodel import CostModel
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig, create_engine
from repro.workloads import DebitCreditWorkload, run_workload

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, nominal_db_bytes=50 * MB,
                      log_bytes=256 * 1024)


def standalone_result(version="v3", txns=150):
    engine = create_engine(version, RioMemory(f"tp-{version}"), CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=2)
    workload.setup(engine)
    return run_workload(engine, workload, txns)


def passive_result(version="v3", txns=150):
    system = PassiveReplicatedSystem(version, CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=2)
    workload.setup(system)
    system.sync_initial()
    return run_workload(system, workload, txns)


def test_standalone_report_has_no_link_time():
    report = ThroughputEstimator().standalone(standalone_result())
    assert report.link_us == 0.0
    assert report.tps == pytest.approx(1e6 / report.txn_time_us)
    assert report.mode == "standalone"


def test_passive_slower_than_standalone():
    estimator = ThroughputEstimator()
    standalone = estimator.standalone(standalone_result())
    passive = estimator.passive(passive_result())
    assert passive.tps < standalone.tps
    assert passive.link_us > 0


def test_passive_time_is_max_plus_overlap():
    estimator = ThroughputEstimator()
    report = estimator.passive(passive_result())
    expected = max(report.cpu_us, report.link_us) + (
        DEFAULT_CALIBRATION.overlap * min(report.cpu_us, report.link_us)
    )
    assert report.txn_time_us == pytest.approx(expected)


def test_two_safe_slower_than_one_safe():
    from repro.replication.active import ActiveReplicatedSystem

    system = ActiveReplicatedSystem(CONFIG)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=2)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, 150)
    estimator = ThroughputEstimator()
    one_safe = estimator.active(result)
    two_safe = estimator.active(result, two_safe=True)
    assert two_safe.tps < one_safe.tps
    # The difference is roughly the SAN round trip.
    assert two_safe.txn_time_us - one_safe.txn_time_us >= (
        2 * DEFAULT_CALIBRATION.san.latency_us * 0.9
    )


def test_smp_linear_when_link_is_free():
    estimator = ThroughputEstimator()
    report = estimator.standalone(standalone_result())
    assert estimator.smp_aggregate(report, 4) == pytest.approx(4 * report.tps)


def test_smp_capped_by_link_capacity():
    estimator = ThroughputEstimator()
    report = estimator.passive(passive_result("v1"))
    cap = 1e6 / report.link_us
    assert estimator.smp_aggregate(report, 4) == pytest.approx(
        min(4 * report.tps, cap)
    )
    assert estimator.smp_aggregate(report, 4) < 4 * report.tps


def test_smp_rejects_zero_processors():
    estimator = ThroughputEstimator()
    report = estimator.standalone(standalone_result())
    with pytest.raises(ValueError):
        estimator.smp_aggregate(report, 0)


def test_calibrate_bases_hits_target_exactly():
    # Whatever the anchoring run, the fitted base lands its estimate on
    # Table 3's Version 3 row.
    result = standalone_result("v3", txns=300)
    calibrated = calibrate_bases(DEFAULT_CALIBRATION, {"debit-credit": result})
    estimator = ThroughputEstimator(calibrated)
    assert estimator.standalone(result).tps == pytest.approx(
        PAPER["standalone"]["debit-credit"]["v3"], rel=1e-6)


def test_calibrate_bases_defaults_to_paper_v3():
    result = standalone_result("v3")
    calibrated = calibrate_bases(DEFAULT_CALIBRATION, {"debit-credit": result})
    estimator = ThroughputEstimator(calibrated)
    assert estimator.standalone(result).tps == pytest.approx(372_692.0, rel=1e-6)


def test_report_from_time():
    model = CostModel()
    breakdown = model.breakdown(standalone_result())
    report = ThroughputReport.from_time("x", 4.0, breakdown, 4.0, 0.0)
    assert report.tps == pytest.approx(250_000)
