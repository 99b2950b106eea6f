"""Shared-link contention accounting.

The SMP-primary experiments (Section 8, Figures 2 and 3) run one
transaction stream per CPU, all funnelling their write-through traffic
onto the *same* Memory Channel link. The link is a serial resource:
aggregate throughput is capped by how many packets per second it can
carry, and the cap depends on the packet-size mix each protocol
produces. :class:`SharedLink` turns per-stream packet traces into that
cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hardware.specs import SanSpec
from repro.san.packets import PacketTrace


@dataclass
class SharedLink:
    """A single link carrying traffic from several senders."""

    san: SanSpec
    traces: List[PacketTrace] = field(default_factory=list)

    def attach(self, trace: PacketTrace) -> None:
        """Add one sender's packet trace to the link."""
        self.traces.append(trace)

    def total_link_time_us(self) -> float:
        """Serial time to drain every attached trace."""
        return sum(trace.link_time_us(self.san) for trace in self.traces)
