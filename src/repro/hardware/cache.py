"""The cache model.

:class:`AnalyticCacheModel` is a closed-form steady-state miss-rate
estimate for uniform random accesses over a working set. The
throughput estimator uses it because the paper's databases (up to
1 GB) are too large to simulate access-by-access from Python at the
transaction volumes involved; an exact direct-mapped simulator
validates it in the tests (``tests/oracles/cache_reference.py``).

For a direct-mapped cache of ``C`` bytes and a uniformly accessed
working set of ``W`` bytes, the steady-state probability that a
random line is resident is ``min(1, C / W)`` (each cache set holds the
most recent of the ``W / C`` lines mapping to it, and accesses are
uniform). A small conflict-miss floor accounts for direct-mapped
conflicts even when ``W <= C``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import CacheSpec

#: Residual miss rate when the working set fits: direct-mapped
#: conflict misses plus cold misses amortized over a long run.
CONFLICT_FLOOR = 0.02


@dataclass(frozen=True)
class AnalyticCacheModel:
    """Closed-form miss-rate model for uniform random line accesses
    to the cache ``spec``."""

    spec: CacheSpec

    def miss_rate(self, working_set_bytes: int) -> float:
        """Steady-state miss probability for one random line access."""
        if working_set_bytes <= 0:
            return 0.0
        resident = min(1.0, self.spec.size_bytes / working_set_bytes)
        miss = 1.0 - resident
        return min(1.0, max(miss, 0.0) + CONFLICT_FLOOR * resident)

    def miss_time_us(self, working_set_bytes: int, lines_touched: float) -> float:
        """Expected stall time for ``lines_touched`` random line accesses."""
        return (
            self.miss_rate(working_set_bytes)
            * lines_touched
            * self.spec.miss_penalty_us
        )

    def sequential_miss_time_us(self, total_bytes: float) -> float:
        """Expected stall time for a sequential sweep of ``total_bytes``.

        Sequential access misses once per line (no reuse), so the cost
        is simply lines * penalty. Used for log writes and mirror
        sweeps over regions larger than the cache.
        """
        lines = total_bytes / self.spec.line_size
        return lines * self.spec.miss_penalty_us
