"""Discrete-event validation of the SMP shared-link model.

The throughput estimator caps SMP aggregate throughput at
``min(n * single_stream, link_capacity)`` (Section 8). That closed
form ignores queueing: streams post writes into finite write buffers
and stall when the shared link backs up. This module simulates the
contention directly — n transaction streams, each alternating CPU
work and posted packet bursts, sharing one FIFO link server with
per-stream write-buffer backpressure — and the tests hold the closed
form to the simulation within a few percent.

A stalled stream does not poll: the link completion that drains its
buffers wakes it. It still resumes where the original busy-wait would
have — on the grid ``t0 = stall instant, t(k+1) = t(k) + POLL_US``
(repeated float addition), at the first tick that finds the buffers
drained, through the same zero-delay resume event — because that grid
decides every equal-timestamp ordering among the lock-step streams, so
keeping it keeps the committed tables bit-identical
(``tests/oracles/smp_sim_reference.py`` is the polling original).

Nor does the link take one event per packet. When packet *k* completes,
the completion of *k+1* would be pushed with the highest sequence
number issued so far, so it is the very next event to fire unless
something already queued fires at or before its instant: an earlier
event wins on time, an equal one on sequence (it was pushed first), and
nothing new can be pushed in between, since only firing events push.
So ``complete`` finishes *k+1* in place — same ``busy_us`` order, same
service span, same wake tick; it reads ``done_at``, never the clock —
while it is before both the earliest queued event and the horizon, and
goes back on the heap only where the chain is interrupted. The queue's
earliest time is read once per ``complete``; within the loop only the
wakes it pushes itself can bring it forward.

The link FIFO holds one entry per posted transaction, not per packet:
its packet sizes and their service times, built once per distinct
packet list, plus the stream. The packet on the wire is a place in the
head entry, saved only where the chain is interrupted; a stream's
outstanding bytes are held in a local while its entry drains and
written back when the entry is done or the chain stops.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from math import inf, nextafter
from typing import List

from repro.hardware.specs import SanSpec, MEMORY_CHANNEL_II
from repro.san.packets import PacketTrace
from repro.sim.engine import Simulator

#: Per-CPU posted-write capacity: six 32-byte write buffers.
WRITE_BUFFER_BYTES = 6 * 32

#: Spacing of the resume grid: the original busy-wait's poll interval.
POLL_US = 0.05


def _grid(start: float, step: float, end: float) -> List[float]:
    """``start, start + step, ...`` by repeated float addition, through
    the first value at or past ``end``."""
    times = [start]
    while times[-1] < end:
        times.append(times[-1] + step)
    return times


def packet_sequence(trace: PacketTrace, transactions: int) -> List[List[int]]:
    """Distribute a run's packet histogram over its transactions as a
    deterministic per-transaction packet list (repeated cyclically by
    the simulation)."""
    if transactions <= 0:
        raise ValueError("need at least one transaction")
    flat: List[int] = []
    for size in sorted(trace.histogram):
        flat.extend([size] * int(round(trace.histogram[size])))
    return [flat[first::transactions] for first in range(transactions)]


@dataclass
class SmpSimulationResult:
    processors: int
    simulated_us: float
    per_stream_completed: List[int]
    link_busy_us: float

    @property
    def aggregate_tps(self) -> float:
        return sum(self.per_stream_completed) / self.simulated_us * 1e6


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
    if not 0 < txn_cpu_us < inf:
        raise ValueError(f"txn_cpu_us must be positive and finite, not {txn_cpu_us}")
    if not 0 <= duration_us < inf:
        raise ValueError(
            f"duration_us must be finite and not negative, not {duration_us}")
    if buffer_bytes < 0:
        raise ValueError(f"buffer_bytes must not be negative, not {buffer_bytes}")
    try:
        service_us = {size: san.packet_time_us(size)
                      for size in set(itertools.chain.from_iterable(txn_packets))}
    except ValueError as error:
        raise ValueError(f"txn_packets: {error}") from None
    # One burst per distinct packet list: (sizes, service times, bytes).
    bursts = {
        packets: (packets, tuple(map(service_us.__getitem__, packets)), sum(packets))
        for packets in set(map(tuple, txn_packets))
    }
    schedule = [bursts[packets] for packets in map(tuple, txn_packets)] or [((), (), 0)]
    period = len(schedule)
    horizon = nextafter(duration_us, inf)  # the first instant past the run
    sim = Simulator()
    clock, schedule_at, schedule_after = sim.clock, sim.schedule_at, sim.schedule_after
    peek_time = sim.queue.peek_time
    completed = [0] * processors
    outstanding = [0] * processors  # posted, undelivered bytes per stream
    stalled_at = [None] * processors  # stall instant while waiting on the link
    resumed = [(0.0, index) for index in range(processors)]  # last (instant, order)
    resume_order = itertools.count(processors)
    rearms = []  # per stream: count the transaction, then compute and post again
    fifo = deque()  # (sizes, service times, stream) posted; the head is on the wire
    due = {}  # grid instant -> [(stream, its stall instant)] resuming then
    busy_us = started_at = done_at = 0.0  # link total; the wire packet's service span
    head = 0  # the wire packet's place in the head burst

    def complete() -> None:
        """Finish the packet on the wire, and every one behind it whose
        completion would be the very next event to fire."""
        nonlocal busy_us, started_at, done_at, head
        busy, start, done, place = busy_us, started_at, done_at, head
        sizes, services, index = fifo[0]
        end, left, stalled = len(sizes), outstanding[index], stalled_at[index]
        # The chain goes on while the next completion is before both the
        # earliest queued event and the horizon. Only a wake pushed below
        # can change the queue in between.
        stop = peek_time()
        if stop is None or stop > horizon:
            stop = horizon
        while True:
            left -= sizes[place]
            if stalled is not None and left <= buffer_bytes:
                stalled_at[index] = None
                tick = stalled + POLL_US
                while tick < done:
                    tick += POLL_US
                # A tick at this very instant still saw full buffers if it
                # was scheduled (one tick earlier) before this completion was
                # (at service start): it fired first, so the next tick resumes.
                if tick == done and _grid(stalled, POLL_US, tick)[-2] < start:
                    tick += POLL_US
                if tick in due:
                    due[tick].append((index, stalled))
                else:
                    due[tick] = [(index, stalled)]
                    schedule_at(tick, wake, "wake")
                    if tick < stop:
                        stop = tick
                stalled = None
            place += 1
            if place == end:
                outstanding[index] = left
                fifo.popleft()
                if not fifo:
                    busy_us, started_at, done_at = busy, start, done
                    return
                sizes, services, index = fifo[0]
                end, left, stalled = len(sizes), outstanding[index], stalled_at[index]
                place = 0
            service = services[place]
            busy += service
            start = done
            done = start + service
            if done >= stop:
                outstanding[index] = left
                busy_us, started_at, done_at, head = busy, start, done, place
                schedule_at(done, complete, "link")
                return

    def poll_history(entry) -> list:
        """The polling run's event instants of a due stream since its
        last resume, newest first. Events fire in the order of the events
        that scheduled them, so this sorts same-instant ticks; when one
        history is a suffix of the other, the longer lineage is older."""
        index, stalled = entry
        since, order = resumed[index]
        times = _grid(since, txn_cpu_us, stalled)[:-1]
        times += _grid(stalled, POLL_US, clock.now)
        return times[::-1] + [inf, order]

    def wake() -> None:
        now = clock.now
        if fifo and done_at == now:
            # This instant's completion has yet to run and may add a
            # stream whose tick precedes those already due: go after it.
            schedule_at(now, wake, "wake")
            return
        batch = due.pop(now)
        if len(batch) > 1:  # only when packets take less than POLL_US
            batch.sort(key=poll_history)
        for index, _ in batch:
            resumed[index] = (now, next(resume_order))
            schedule_after(0.0, rearms[index], "stream")

    def launch(index: int) -> None:
        cursor = index  # desynchronize the streams slightly

        def post() -> None:
            nonlocal cursor, busy_us, started_at, done_at, head
            sizes, services, total = schedule[cursor % period]
            cursor += 1
            if sizes:
                if not fifo:
                    service = services[0]
                    busy_us += service
                    started_at = clock.now
                    done_at, head = started_at + service, 0
                    schedule_at(done_at, complete, "link")
                fifo.append((sizes, services, index))
                outstanding[index] += total
            if outstanding[index] > buffer_bytes:
                stalled_at[index] = clock.now
            else:  # rearm(), in place
                completed[index] += 1
                schedule_after(txn_cpu_us, post, "stream")

        def rearm() -> None:
            completed[index] += 1
            schedule_after(txn_cpu_us, post, "stream")

        rearms.append(rearm)
        schedule_after(txn_cpu_us, post, "stream")

    for index in range(processors):
        launch(index)
    sim.run(until=duration_us)
    return SmpSimulationResult(processors=processors, simulated_us=duration_us,
                               per_stream_completed=completed, link_busy_us=busy_us)


def simulate_from_run(result, cpu_us: float, processors: int,
                      duration_us: float = 20_000.0) -> SmpSimulationResult:
    """Convenience: build the packet schedule from a measured
    :class:`~repro.workloads.driver.RunResult` and simulate it on
    Memory Channel II."""
    per_txn = packet_sequence(result.packet_trace, result.transactions)
    return simulate_smp(cpu_us, per_txn, processors, duration_us)
