"""The polling original of ``repro.perf.smp_sim``, kept as a test oracle.

This is the module as it stood before stalled streams became
event-driven, verbatim below this docstring (but for where it finds
``Process``, now ``tests/oracles/sim_process.py``): generator ``Process``es,
and a stalled stream busy-waiting with ``wait_for(..., poll=0.05)``.
It is ~8x slower (over 85% of its events are poll ticks) and still
hangs or fails mid-run on the inputs the live module now rejects up
front; the property suite holds the live module to it field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hardware.specs import SanSpec, MEMORY_CHANNEL_II
from repro.san.packets import PacketTrace
from repro.sim.engine import Simulator
from tests.oracles.sim_process import Process, sleep, wait_for

#: Per-CPU posted-write capacity: six 32-byte write buffers.
WRITE_BUFFER_BYTES = 6 * 32


@dataclass
class _Stream:
    """One transaction stream's simulation state."""

    index: int
    completed: int = 0
    outstanding_bytes: int = 0
    stalled_us: float = 0.0


class _LinkServer:
    """A FIFO link: packets drain one at a time at the SAN's rate."""

    def __init__(self, sim: Simulator, san: SanSpec):
        self.sim = sim
        self.san = san
        self.queue: List[tuple] = []  # (size, stream)
        self.busy = False
        self.busy_us = 0.0

    def submit(self, size: int, stream: _Stream) -> None:
        stream.outstanding_bytes += size
        self.queue.append((size, stream))
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        size, stream = self.queue.pop(0)
        service = self.san.packet_time_us(size)
        self.busy_us += service

        def complete():
            stream.outstanding_bytes -= size
            self._start_next()

        self.sim.schedule_after(service, complete, name="link")


def packet_sequence(trace: PacketTrace, transactions: int) -> List[List[int]]:
    """Distribute a run's packet histogram over its transactions as a
    deterministic per-transaction packet list (repeated cyclically by
    the simulation)."""
    if transactions <= 0:
        raise ValueError("need at least one transaction")
    flat: List[int] = []
    for size in sorted(trace.histogram):
        flat.extend([size] * int(round(trace.histogram[size])))
    if not flat:
        return [[] for _ in range(transactions)]
    per_txn: List[List[int]] = [[] for _ in range(transactions)]
    for position, size in enumerate(flat):
        per_txn[position % transactions].append(size)
    return per_txn


@dataclass
class SmpSimulationResult:
    processors: int
    simulated_us: float
    per_stream_completed: List[int]
    link_busy_us: float

    @property
    def aggregate_tps(self) -> float:
        return sum(self.per_stream_completed) / self.simulated_us * 1e6

    @property
    def link_utilization(self) -> float:
        return self.link_busy_us / self.simulated_us


def simulate_smp(
    txn_cpu_us: float,
    txn_packets: List[List[int]],
    processors: int,
    duration_us: float = 20_000.0,
    san: SanSpec = MEMORY_CHANNEL_II,
    buffer_bytes: int = WRITE_BUFFER_BYTES,
) -> SmpSimulationResult:
    """Simulate ``processors`` independent streams sharing one link.

    Each stream repeatedly: computes for ``txn_cpu_us``; posts its
    transaction's packets (cycled from ``txn_packets``); and stalls
    only if its posted-but-undrained bytes exceed the write-buffer
    capacity — the posted-write semantics of the Memory Channel.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    sim = Simulator()
    link = _LinkServer(sim, san)
    streams = [_Stream(index) for index in range(processors)]

    def stream_proc(stream: _Stream):
        cursor = stream.index  # desynchronize the streams slightly
        while True:
            yield sleep(txn_cpu_us)
            packets = txn_packets[cursor % len(txn_packets)] if txn_packets else []
            cursor += 1
            for size in packets:
                link.submit(size, stream)
            if stream.outstanding_bytes > buffer_bytes:
                stall_start = sim.now
                yield wait_for(
                    lambda s=stream: s.outstanding_bytes <= buffer_bytes,
                    poll=0.05,
                )
                stream.stalled_us += sim.now - stall_start
            stream.completed += 1

    for stream in streams:
        Process(sim, stream_proc(stream), name=f"stream-{stream.index}")
    sim.run(until=duration_us)
    return SmpSimulationResult(
        processors=processors,
        simulated_us=duration_us,
        per_stream_completed=[stream.completed for stream in streams],
        link_busy_us=link.busy_us,
    )


def simulate_from_run(result, cpu_us: float, processors: int,
                      duration_us: float = 20_000.0,
                      san: SanSpec = MEMORY_CHANNEL_II) -> SmpSimulationResult:
    """Convenience: build the packet schedule from a measured
    :class:`~repro.workloads.driver.RunResult` and simulate."""
    per_txn = packet_sequence(result.packet_trace, result.transactions)
    return simulate_smp(cpu_us, per_txn, processors, duration_us, san)
