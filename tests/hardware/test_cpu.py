"""CostAccumulator: named CPU-time accounting."""

import pytest

from repro.hardware.cpu import CostAccumulator


def test_charges_accumulate_by_component():
    acc = CostAccumulator()
    acc.charge("copy", 1.0)
    acc.charge("copy", 0.5)
    acc.charge("alloc", 2.0)
    assert acc["copy"] == pytest.approx(1.5)
    assert acc["alloc"] == pytest.approx(2.0)
    assert acc.total_us() == pytest.approx(3.5)


def test_unknown_component_reads_zero():
    assert CostAccumulator()["nothing"] == 0.0


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        CostAccumulator().charge("x", -0.1)


def test_items_sorted():
    acc = CostAccumulator({"b": 1.0, "a": 2.0})
    assert [name for name, _value in acc.items()] == ["a", "b"]
