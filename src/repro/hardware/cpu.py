"""CPU-time cost accounting.

The performance model charges CPU time to named components (benchmark
logic, allocation, copying, cache stalls, I/O-space store issue, ...)
so experiment reports can show *where* each design spends its time —
the paper's qualitative arguments (locality, metadata overhead) then
become visible in the breakdown rather than buried in one number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple


@dataclass
class CostAccumulator:
    """Accumulates microseconds of CPU time per named component."""

    components: Dict[str, float] = field(default_factory=dict)

    def charge(self, component: str, micros: float) -> None:
        """Add ``micros`` microseconds to ``component``."""
        if micros < 0:
            raise ValueError(f"cannot charge negative time to {component!r}")
        self.components[component] = self.components.get(component, 0.0) + micros

    def total_us(self) -> float:
        return sum(self.components.values())

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self.components.items()))

    def __getitem__(self, component: str) -> float:
        return self.components.get(component, 0.0)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3f}" for k, v in self.items())
        return f"CostAccumulator({parts})"
