"""EngineCounters and AccessProfile instrumentation."""

import pytest

from repro.vista.stats import AccessProfile, EngineCounters


class TestEngineCounters:
    def test_per_transaction(self):
        counters = EngineCounters(transactions=4, set_ranges=8, mallocs=16)
        per_txn = counters.per_transaction()
        assert per_txn["set_ranges"] == 2.0
        assert per_txn["mallocs"] == 4.0
        assert "transactions" not in per_txn

    def test_per_transaction_with_zero_transactions(self):
        assert EngineCounters().per_transaction()["set_ranges"] == 0.0


class TestAccessProfile:
    def test_touch_random_counts_lines(self):
        profile = AccessProfile(line_size=64)
        profile.declare("db", 1 << 20)
        profile.touch_random("db", 0, 1)
        profile.touch_random("db", 60, 8)  # crosses a line boundary
        assert profile.random_lines["db"] == 3

    def test_touch_sequential_counts_bytes(self):
        profile = AccessProfile()
        profile.touch_sequential("db", 100)
        profile.touch_sequential("db", 50)
        assert profile.sequential_bytes["db"] == 150

    def test_zero_length_touches_ignored(self):
        profile = AccessProfile()
        profile.touch_random("db", 0, 0)
        profile.touch_sequential("db", 0)
        assert profile.random_lines == {}
        assert profile.sequential_bytes == {}

    def test_scaled(self):
        profile = AccessProfile()
        profile.declare("db", 100)
        profile.touch_random("db", 0, 64)
        profile.touch_sequential("db", 64)
        half = profile.scaled(0.5)
        assert half.random_lines["db"] == pytest.approx(0.5)
        assert half.sequential_bytes["db"] == pytest.approx(32)
        assert half.working_set_bytes["db"] == 100
        assert profile.random_lines["db"] == 1
