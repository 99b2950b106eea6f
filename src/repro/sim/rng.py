"""Seeded random-number helpers.

Every stochastic component draws from a ``random.Random`` seeded from
the experiment's single integer seed, so a run is fully determined by
that seed.
"""

from __future__ import annotations

import random
from typing import Iterator


def zipf_like(rng: random.Random, n: int, skew: float = 0.0) -> Iterator[int]:
    """Yield indices in ``[0, n)``; uniform when ``skew`` is 0.

    The TPC-derived benchmarks in the paper use uniform random account
    selection; ``skew`` is provided for sensitivity experiments.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew <= 0:
        while True:
            yield rng.randrange(n)
    else:
        # Approximate Zipf by rank r ~ U^(1/(1-skew)) scaling; adequate
        # for workload-skew sensitivity studies, not for exact Zipf fits.
        exponent = 1.0 / max(1e-9, 1.0 - min(skew, 0.999))
        while True:
            u = rng.random()
            yield min(n - 1, int(n * (u ** exponent)))
