"""An exact direct-mapped cache simulator: the oracle for
:class:`repro.hardware.cache.AnalyticCacheModel`.

One tag per line, every access simulated. ``tests/hardware/
test_cache.py`` holds the closed form to this simulator under uniform
random accesses on a small configuration, the check the paper-sized
databases are too large to run.
"""

from __future__ import annotations

from repro.hardware.specs import CacheSpec


class DirectMappedCache:
    """Exact direct-mapped cache simulator.

    Addresses are byte addresses; each access touches the single line
    containing the address (callers split multi-line accesses with
    :meth:`access_range`).
    """

    def __init__(self, spec: CacheSpec):
        if spec.size_bytes % spec.line_size != 0:
            raise ValueError("cache size must be a multiple of the line size")
        self.spec = spec
        self.num_lines = spec.size_bytes // spec.line_size
        self._tags: list = [None] * self.num_lines
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate every line (does not reset statistics)."""
        self._tags = [None] * self.num_lines

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = address // self.spec.line_size
        index = line % self.num_lines
        if self._tags[index] == line:
            self.hits += 1
            return True
        self._tags[index] = line
        self.misses += 1
        return False

    def access_range(self, offset: int, length: int) -> int:
        """Access every line in ``[offset, offset+length)``; returns misses."""
        if length <= 0:
            return 0
        line_size = self.spec.line_size
        first = offset // line_size
        last = (offset + length - 1) // line_size
        misses = 0
        for line in range(first, last + 1):
            if not self.access(line * line_size):
                misses += 1
        return misses

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
