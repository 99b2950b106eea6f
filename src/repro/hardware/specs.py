"""Parameter records for the paper's hardware.

All times are microseconds, all sizes bytes, matching the units used
throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class CacheSpec:
    """A single cache level.

    The paper's results are dominated by the 8 MB direct-mapped
    board-level cache (64-byte lines); the on-chip levels are folded
    into the base CPU costs during calibration.
    """

    size_bytes: int
    line_size: int
    miss_penalty_us: float


@dataclass(frozen=True)
class MachineSpec:
    """A compute node (one AlphaServer 4100 in the paper)."""

    name: str
    cpu_mhz: float
    num_cpus: int
    memory_bytes: int
    board_cache: CacheSpec
    write_buffers: int
    write_buffer_bytes: int


@dataclass(frozen=True)
class SanSpec:
    """A system-area network with write-through capability.

    The effective process-to-process bandwidth follows the measured
    Figure 1 curve, which is captured by a fixed per-packet overhead
    plus a byte-transfer term::

        packet_time(size) = per_packet_overhead_us + size / raw_bandwidth

    Fitting the paper's endpoints (14 MB/s at 4-byte packets, 80 MB/s
    at 32-byte packets) gives overhead ~= 0.27 us and raw bandwidth
    ~= 250 MB/us... i.e. 250 bytes/us. The interface never aggregates
    across PCI writes, so ``max_packet_bytes`` caps packet size at 32.
    """

    name: str
    latency_us: float
    per_packet_overhead_us: float
    raw_bandwidth_bytes_per_us: float
    max_packet_bytes: int

    def packet_time_us(self, size_bytes: int) -> float:
        """Link occupancy of one packet of ``size_bytes`` payload."""
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if size_bytes > self.max_packet_bytes:
            raise ValueError(
                f"packet of {size_bytes} bytes exceeds max "
                f"{self.max_packet_bytes} for {self.name}"
            )
        return self.per_packet_overhead_us + size_bytes / self.raw_bandwidth_bytes_per_us


#: The paper's compute node: AlphaServer 4100 5/600 — four 600 MHz
#: 21164A CPUs, 2 GB memory, 8 MB direct-mapped board cache with
#: 64-byte lines, six 32-byte write buffers per CPU. The ~0.13 us miss
#: penalty is calibrated from Table 8 (see repro.perf.calibration).
ALPHASERVER_4100 = MachineSpec(
    name="AlphaServer 4100 5/600",
    cpu_mhz=600.0,
    num_cpus=4,
    memory_bytes=2 * GB,
    board_cache=CacheSpec(size_bytes=8 * MB, line_size=64, miss_penalty_us=0.13),
    write_buffers=6,
    write_buffer_bytes=32,
)

#: Memory Channel II: 3.3 us uncontended latency for a 4-byte write;
#: 80 MB/s peak with 32-byte packets, ~14 MB/s with 4-byte packets
#: (Figure 1). The overhead/raw-bandwidth split is fitted from those
#: two endpoints:
#:   4/(o + 4/r)  = 14 MB/s  and  32/(o + 32/r) = 80 MB/s
#: => o ~= 0.272 us, r ~= 262 bytes/us.
MEMORY_CHANNEL_II = SanSpec(
    name="Memory Channel II",
    latency_us=3.3,
    per_packet_overhead_us=0.272,
    raw_bandwidth_bytes_per_us=262.0,
    max_packet_bytes=32,
)
