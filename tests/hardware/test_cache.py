"""The analytic cache model, and the exact simulator it is held to."""

import random

import pytest

from repro.hardware.cache import CONFLICT_FLOOR, AnalyticCacheModel
from repro.hardware.specs import CacheSpec
from tests.oracles.cache_reference import DirectMappedCache

SMALL = CacheSpec(size_bytes=1024, line_size=64, miss_penalty_us=0.1)


def test_cold_access_misses_then_hits():
    cache = DirectMappedCache(SMALL)
    assert cache.access(0) is False
    assert cache.access(0) is True
    assert cache.access(63) is True  # same line
    assert cache.access(64) is False  # next line


def test_direct_mapped_conflict():
    cache = DirectMappedCache(SMALL)
    cache.access(0)
    # 1024 bytes = 16 lines; address 1024 maps to the same set as 0.
    assert cache.access(1024) is False
    assert cache.access(0) is False  # evicted by the conflict


def test_access_range_counts_misses():
    cache = DirectMappedCache(SMALL)
    assert cache.access_range(0, 128) == 2
    assert cache.access_range(0, 128) == 0
    assert cache.access_range(10, 0) == 0


def test_flush_invalidates():
    cache = DirectMappedCache(SMALL)
    cache.access(0)
    cache.flush()
    assert cache.access(0) is False


def test_miss_rate_statistic():
    cache = DirectMappedCache(SMALL)
    cache.access(0)
    cache.access(0)
    assert cache.miss_rate == pytest.approx(0.5)
    cache.reset_stats()
    assert cache.miss_rate == 0.0


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        DirectMappedCache(CacheSpec(size_bytes=100, line_size=64,
                                    miss_penalty_us=0.1))


def test_analytic_fitting_working_set_hits_floor():
    model = AnalyticCacheModel(SMALL)
    assert model.miss_rate(512) == pytest.approx(CONFLICT_FLOOR)


def test_analytic_large_working_set():
    model = AnalyticCacheModel(SMALL)
    # Working set 4x the cache: 3/4 of accesses miss, and the resident
    # quarter misses at the conflict floor.
    assert model.miss_rate(4096) == pytest.approx(0.75 + CONFLICT_FLOOR / 4)


def test_analytic_monotonic_in_working_set():
    model = AnalyticCacheModel(SMALL)
    rates = [model.miss_rate(size) for size in (512, 1024, 2048, 8192, 1 << 20)]
    assert rates == sorted(rates)
    assert rates[-1] <= 1.0


def test_analytic_zero_working_set():
    assert AnalyticCacheModel(SMALL).miss_rate(0) == 0.0


def test_analytic_miss_time():
    model = AnalyticCacheModel(SMALL)
    # 10 random lines over a 4x working set at 0.1 us per miss.
    assert model.miss_time_us(4096, 10) == pytest.approx(
        (0.75 + CONFLICT_FLOOR / 4) * 10 * 0.1)


def test_sequential_miss_time_is_once_per_line():
    model = AnalyticCacheModel(SMALL)
    assert model.sequential_miss_time_us(640) == pytest.approx(1.0)


def test_analytic_validated_against_exact_simulation():
    """The closed form should track a real direct-mapped cache under
    uniform random accesses to within a few percent."""
    spec = CacheSpec(size_bytes=4096, line_size=64, miss_penalty_us=0.1)
    cache = DirectMappedCache(spec)
    model = AnalyticCacheModel(spec)
    working_set = 16384  # 4x cache
    rng = random.Random(1)
    for _ in range(2000):  # warm up
        cache.access(rng.randrange(working_set))
    cache.reset_stats()
    for _ in range(20000):
        cache.access(rng.randrange(working_set))
    assert cache.miss_rate == pytest.approx(model.miss_rate(working_set), abs=0.05)
