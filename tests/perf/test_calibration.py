"""Calibration constants and the paper's reference numbers."""

import pytest

from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION, PAPER


def test_default_is_frozen():
    with pytest.raises(Exception):
        DEFAULT_CALIBRATION.overlap = 0.9


def test_with_bases_returns_modified_copy():
    updated = DEFAULT_CALIBRATION.with_bases({"debit-credit": 9.9})
    assert updated.txn_base_us["debit-credit"] == 9.9
    assert updated.txn_base_us["order-entry"] == (
        DEFAULT_CALIBRATION.txn_base_us["order-entry"]
    )
    assert DEFAULT_CALIBRATION.txn_base_us["debit-credit"] != 9.9


def test_overlap_is_a_fraction():
    assert 0.0 <= DEFAULT_CALIBRATION.overlap <= 1.0


def test_paper_reference_orderings():
    """Sanity-check the transcribed paper numbers themselves."""
    for workload in ("debit-credit", "order-entry"):
        standalone = PAPER["standalone"][workload]
        assert standalone["v3"] > standalone["v1"] > standalone["v2"] > standalone["v0"]
        passive = PAPER["passive"][workload]
        assert passive["v3"] > passive["v2"] > passive["v1"] > passive["v0"]
        assert PAPER["active"][workload]["active"] > passive["v3"]
        sizes = PAPER["dbsize"][workload]
        assert sizes["10MB"] > sizes["100MB"] > sizes["1GB"]


def test_paper_traffic_mb_consistency():
    """Tables 2/5/7 as printed: every total is its categories' sum to
    the paper's rounding, the active rows ship no undo, and the run
    lengths are Table 1's 22.8 s and 6.2 s at its V0 rates."""
    for workload, rows in PAPER["traffic_mb"].items():
        for name, row in rows.items():
            parts = row["modified"] + row["undo"] + row["meta"]
            assert row["total"] == pytest.approx(parts, abs=0.15), (workload, name)
        assert rows["active"]["undo"] == 0.0
        assert rows["v2"]["undo"] == rows["v2"]["modified"]
    for workload, seconds in (("debit-credit", 22.8), ("order-entry", 6.2)):
        rate = PAPER["standalone"][workload]["v0"]
        assert PAPER["run_transactions"][workload] / rate == pytest.approx(
            seconds, abs=0.005
        )


def test_figure1_reference_monotonic():
    curve = PAPER["figure1"]
    assert curve[4] < curve[8] < curve[16] < curve[32]
