"""The seeded Zipf-like index stream."""

import random

from repro.sim.rng import zipf_like


def test_zipf_like_uniform_covers_range():
    rng = random.Random(3)
    values = set()
    gen = zipf_like(rng, 10)
    for _ in range(1000):
        values.add(next(gen))
    assert values == set(range(10))


def test_zipf_like_skewed_prefers_low_indices():
    rng = random.Random(3)
    gen = zipf_like(rng, 1000, skew=0.9)
    samples = [next(gen) for _ in range(2000)]
    assert all(0 <= value < 1000 for value in samples)
    low = sum(1 for value in samples if value < 100)
    assert low > len(samples) * 0.5


def test_zipf_like_rejects_empty_domain():
    import pytest

    with pytest.raises(ValueError):
        next(zipf_like(random.Random(0), 0))
