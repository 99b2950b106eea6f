"""The cost model: counts -> time, with sane monotonicity."""

import pytest

from repro.perf import calibration
from repro.perf.calibration import DEFAULT_CALIBRATION
from repro.perf.costmodel import CostModel
from repro.san.packets import PacketTrace
from repro.vista.stats import AccessProfile, EngineCounters
from repro.workloads.driver import RunResult

MB = 1024 * 1024


def make_result(workload="debit-credit", transactions=10, **counter_kwargs):
    counters = EngineCounters(transactions=transactions, **counter_kwargs)
    profile = AccessProfile()
    profile.declare("db", 50 * MB)
    return RunResult(
        workload=workload,
        target_kind="test",
        transactions=transactions,
        counters=counters,
        profile=profile,
    )


def test_base_cost_comes_from_workload():
    model = CostModel()
    dc = model.engine_cpu_us(make_result("debit-credit"))
    oe = model.engine_cpu_us(make_result("order-entry"))
    assert dc["base"] == DEFAULT_CALIBRATION.txn_base_us["debit-credit"]
    assert oe["base"] == DEFAULT_CALIBRATION.txn_base_us["order-entry"]
    assert oe["base"] > dc["base"]


def test_heap_operations_cost_time():
    model = CostModel()
    without = make_result()
    with_allocs = make_result(mallocs=80, frees=80)
    assert (
        model.engine_cpu_us(with_allocs).total_us()
        > model.engine_cpu_us(without).total_us()
    )
    delta = (
        model.engine_cpu_us(with_allocs)["heap"]
    )
    assert delta == pytest.approx(
        8 * (calibration.MALLOC_US + calibration.FREE_US)
    )


def test_comparison_cost_for_diffing():
    model = CostModel()
    result = make_result(bytes_compared=620)
    assert model.engine_cpu_us(result)["compare"] == pytest.approx(
        62 * calibration.COMPARE_BYTE_US
    )


def test_cache_stall_grows_with_working_set():
    model = CostModel()
    small = make_result()
    small.profile.declare("db", 10 * MB)
    small.profile.touch_random("db", 0, 1)
    big = make_result()
    big.profile.declare("db", 1024 * MB)
    big.profile.touch_random("db", 0, 1)
    assert model.cache_stall_us(big) > model.cache_stall_us(small)


def test_sequential_access_cheaper_than_random_at_scale():
    model = CostModel()
    random_touch = make_result()
    random_touch.profile.touch_random("db", 0, 64 * 10)
    sequential = make_result()
    sequential.profile.touch_sequential("db", 64 * 10)
    # At a 50 MB working set random touches mostly miss; sequential
    # misses once per line too — they should be comparable, while a
    # cache-resident working set makes random far cheaper.
    resident = make_result()
    resident.profile.declare("db", 1 * MB)
    resident.profile.touch_random("db", 0, 64 * 10)
    assert model.cache_stall_us(resident) < model.cache_stall_us(random_touch)


def test_link_time_from_packet_trace():
    model = CostModel()
    result = make_result()
    result.packet_trace = PacketTrace({32: 20})
    expected = PacketTrace({32: 2}).link_time_us(DEFAULT_CALIBRATION.san)
    assert model.link_time_us(result) == pytest.approx(expected)


def test_link_time_zero_without_trace():
    assert CostModel().link_time_us(make_result()) == 0.0


def test_io_issue_cost():
    model = CostModel()
    result = make_result()
    result.io_stores = 100
    result.traffic_bytes = {"modified": 1000}
    per_txn = model.io_issue_us(result)
    assert per_txn == pytest.approx(
        10 * calibration.IO_STORE_US
        + 100 * calibration.IO_BYTE_US
    )


def test_combine_cpu_and_link_partial_overlap():
    model = CostModel()
    combined = model.combine_cpu_and_link(10.0, 4.0)
    assert combined == pytest.approx(10.0 + DEFAULT_CALIBRATION.overlap * 4.0)
    assert model.combine_cpu_and_link(4.0, 10.0) == combined


def test_breakdown_totals():
    model = CostModel()
    result = make_result(set_ranges=40, db_writes=40, db_bytes_written=280)
    breakdown = model.breakdown(result)
    assert breakdown.cpu_total_us == pytest.approx(
        breakdown.cpu.total_us()
        + breakdown.cache_stall_us
        + breakdown.io_issue_us
    )
