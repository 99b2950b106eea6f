"""The bandwidth microbenchmark behind Figure 1.

The paper measures effective process-to-process bandwidth by writing a
large region with varying strides: a stride of one produces 32-byte
Memory Channel packets, a stride of two 16-byte packets, and so on
down to 4-byte packets (Section 2.3). We reproduce the experiment
against the model: issue the same strided store pattern into a
transmit mapping, collect the packet trace the write buffers emit, and
report bytes / link-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.memory.region import MemoryRegion
from repro.san.memory_channel import MemoryChannelInterface

_WORD = 4  # the Alpha issues 4-byte stores in the paper's test program

#: Figure 1's packet sizes.
_PACKET_SIZES = (4, 8, 16, 32)


@dataclass(frozen=True)
class BandwidthPoint:
    """One point of the Figure 1 curve."""

    packet_bytes: int
    effective_mb_per_s: float
    packets: int


def measure_effective_bandwidth(
    packet_bytes: int,
    region_bytes: int = 1 << 20,
) -> BandwidthPoint:
    """Measure effective bandwidth on Memory Channel II for packets of
    ``packet_bytes``.

    Writes ``region_bytes`` of data as runs of ``packet_bytes``
    contiguous bytes separated by a stride of 32 bytes — exactly the
    strided pattern of the paper's test program — and reports the
    bytes-per-link-time the emitted packet trace achieves.
    """
    max_packet_bytes = MEMORY_CHANNEL_II.max_packet_bytes
    if packet_bytes < _WORD or packet_bytes > max_packet_bytes:
        raise ValueError(
            f"packet size {packet_bytes} outside [{_WORD}, {max_packet_bytes}]"
        )
    if packet_bytes % _WORD:
        raise ValueError("packet size must be a multiple of the 4-byte word")

    remote = MemoryRegion("pingpong-remote", region_bytes)
    interface = MemoryChannelInterface("pingpong-sender")
    mapping = interface.map_remote(remote)

    payload = bytes(_WORD)
    block = 32
    for base in range(0, region_bytes, block):
        # One run of `packet_bytes` contiguous 4-byte stores per block.
        for word in range(packet_bytes // _WORD):
            offset = base + word * _WORD
            if offset + _WORD <= region_bytes:
                mapping.write(offset, payload)
    interface.barrier()

    return BandwidthPoint(
        packet_bytes=packet_bytes,
        effective_mb_per_s=interface.trace.effective_bandwidth_mb_per_s(
            MEMORY_CHANNEL_II),
        packets=interface.trace.packets,
    )


def run_figure1_sweep(region_bytes: int = 1 << 20) -> List[BandwidthPoint]:
    """Reproduce Figure 1: effective bandwidth at 4/8/16/32-byte packets."""
    return [
        measure_effective_bandwidth(size, region_bytes)
        for size in _PACKET_SIZES
    ]
