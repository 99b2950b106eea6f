"""Kernel probes: fixed work through a layer's public entry point.

Each probe runs in the traced pass of the workload whose top line it
should move, after the measured phase (so it never pollutes an
end-to-end number), on inputs generated from the run's seed. They
supersede the ``events.*``/``diff.*``/``wbuf.*``/``region.*`` metrics
of the legacy ``BENCH_kernels.json`` — same shapes, but through the
factory each layer actually deploys rather than a named twin.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

MB = 1024 * 1024


def _best_rate(work: float, op: Callable[[], object], repeats: int) -> float:
    """``work`` units per second over the fastest of ``repeats`` calls
    (probes are short; the minimum discards scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - started)
    return work / best


def _heartbeats(queue, rng: random.Random) -> float:
    """Events/s of a 64-member heartbeat schedule (shared timestamps:
    the timer wheel's deployment shape) on the given queue."""
    from repro.sim.engine import Simulator

    sim = Simulator(queue=queue)
    interval = 1000.0

    def beat():
        sim.schedule_after(interval, beat, name="heartbeat")

    for _ in range(64):
        sim.schedule_at(rng.randrange(4) * 250.0, beat, name="heartbeat")
    started = time.perf_counter()
    sim.run(until=300_000.0)
    return sim.events_processed / (time.perf_counter() - started)


def sim_heap(seed: int) -> Dict[str, float]:
    from repro.sim.events import EventQueue

    return {"sim.heap_events_per_s": _heartbeats(EventQueue(), random.Random(seed))}


def sim_wheel(seed: int) -> Dict[str, float]:
    from repro.sim.events import BucketedEventQueue

    return {"sim.wheel_events_per_s":
            _heartbeats(BucketedEventQueue(), random.Random(seed))}


def memory_region(seed: int) -> Dict[str, float]:
    """Fill, in-region copy and cross-region copy of 1 MB through
    ``memory_region()``."""
    from repro.memory.region import memory_region as make_region

    length = MB
    target = make_region("probe/target", 2 * length)
    source = make_region("probe/source", length)
    source.poke(0, random.Random(seed).randbytes(length))
    cases = {
        "fill": (2 * length, lambda: target.fill(0xA5)),
        "copy": (length, lambda: target.copy_within(0, length, length)),
        "cross": (length, lambda: target.copy_from(source, 0, 0, length)),
    }
    return {
        f"memory.region_{label}_mb_per_s": _best_rate(volume / MB, op, 20)
        for label, (volume, op) in cases.items()
    }


def hardware_wbuf(seed: int) -> Dict[str, float]:
    """4096-store drains through ``writebuffer_model().write_batch``:
    block-aligned contiguous (the redo ring's shape) and scattered
    24-byte stores over a 1 MB window (write doubling's shape)."""
    from repro.hardware.writebuffer import writebuffer_model

    rng = random.Random(seed)
    base = rng.randrange(1 << 16) * 64
    shapes = {
        "contig": [(base + i * 64, 64) for i in range(4096)],
        "scatter": [(rng.randrange(1 << 20), 24) for _ in range(4096)],
    }

    def drain(stores):
        model = writebuffer_model(6, 64)
        model.write_batch(stores)
        model.barrier()

    return {
        f"hardware.wbuf_{label}_stores_per_s":
            _best_rate(len(stores), lambda s=stores: drain(s), 10)
        for label, stores in shapes.items()
    }


def fastpath_diff(seed: int) -> Dict[str, float]:
    """``diff_runs_fast`` over 64 KiB: sparse (sixteen modified 64-byte
    records, what the mirror-diff engine sees per commit) and dense
    (every word differs)."""
    from repro.fastpath.kernels import diff_runs_fast

    rng = random.Random(seed)
    size = 64 * 1024
    old = bytes(size)
    sparse = bytearray(old)
    for _ in range(16):
        at = rng.randrange(size // 64) * 64
        sparse[at:at + 64] = rng.randbytes(64)
    pairs = {"sparse": (old, bytes(sparse)), "dense": (old, b"\xff" * size)}
    return {
        f"fastpath.diff_{label}_mb_per_s":
            _best_rate(size / MB, lambda a=a, b=b: diff_runs_fast(a, b), 20)
        for label, (a, b) in pairs.items()
    }
