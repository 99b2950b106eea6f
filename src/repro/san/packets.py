"""Packet traces and statistics.

A :class:`PacketTrace` is a histogram of packet sizes emitted by a
sender's write buffers, together with helpers to convert the histogram
into link occupancy time under a :class:`~repro.hardware.specs.SanSpec`.
The distribution of packet sizes — not just total bytes — is the
paper's central performance mechanism: 4-byte packets see ~14 MB/s
while 32-byte packets see 80 MB/s (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.hardware.specs import SanSpec


@dataclass
class PacketTrace:
    """Histogram of packets sent on a link."""

    histogram: Dict[int, int] = field(default_factory=dict)

    def record(self, size_bytes: int) -> None:
        """Account one packet of ``size_bytes`` payload."""
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.histogram[size_bytes] = self.histogram.get(size_bytes, 0) + 1

    def record_counts(self, counts: Iterable[Tuple[int, int]]) -> None:
        """Account ``count`` packets of ``size_bytes`` payload for each
        ``(size_bytes, count)`` pair: :meth:`record` ``count`` times."""
        histogram = self.histogram
        for size_bytes, count in counts:
            if size_bytes <= 0:
                raise ValueError("packet size must be positive")
            histogram[size_bytes] = histogram.get(size_bytes, 0) + count

    @property
    def packets(self) -> int:
        return sum(self.histogram.values())

    @property
    def bytes(self) -> int:
        return sum(size * count for size, count in self.histogram.items())

    def mean_packet_bytes(self) -> float:
        return self.bytes / self.packets if self.packets else 0.0

    def link_time_us(self, san: SanSpec) -> float:
        """Total link occupancy to drain this trace."""
        return sum(
            count * san.packet_time_us(size)
            for size, count in self.histogram.items()
        )

    def effective_bandwidth_mb_per_s(self, san: SanSpec) -> float:
        """Bytes over link time, in MB/s (0 for an empty trace)."""
        time_us = self.link_time_us(san)
        if time_us == 0:
            return 0.0
        return (self.bytes / time_us) * 1e6 / (1024 * 1024)

    def scaled(self, factor: float) -> "PacketTrace":
        """A trace with counts multiplied by ``factor`` (may be fractional
        link-time math downstream; counts are kept as floats only in the
        returned histogram sums)."""
        return PacketTrace(
            {size: count * factor for size, count in self.histogram.items()}
        )

    def clear(self) -> None:
        self.histogram.clear()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{size}B x {count}" for size, count in sorted(self.histogram.items())
        )
        return f"PacketTrace({parts or 'empty'})"
