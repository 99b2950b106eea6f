"""System-area-network substrate: the Memory Channel model.

The Memory Channel lets a processor write directly into the physical
memory of another machine: stores to an I/O-space mapping are turned
into network packets by the sender's interface and DMA-ed into the
receiver's memory with no remote-CPU involvement (Section 2.3).

* :mod:`repro.san.packets` — packet traces and per-size statistics.
* :mod:`repro.san.memory_channel` — transmit mappings and write-through
  delivery. Write doubling, which the lack of remote reads forces, is
  :mod:`repro.replication.writethrough`.
* :mod:`repro.san.link` — link-time accounting with multi-sender
  contention, used for the SMP-primary experiments (Figures 2, 3).
* :mod:`repro.san.ping_pong` — the microbenchmark behind Figure 1.
"""

from repro.san.packets import PacketTrace
from repro.san.memory_channel import MemoryChannelInterface, TransmitMapping
from repro.san.link import SharedLink
from repro.san.ping_pong import measure_effective_bandwidth, run_figure1_sweep

__all__ = [
    "PacketTrace",
    "MemoryChannelInterface",
    "TransmitMapping",
    "SharedLink",
    "measure_effective_bandwidth",
    "run_figure1_sweep",
]
