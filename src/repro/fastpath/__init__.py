"""The fast-path execution layer.

The paper's argument is about making a hot path fast; this package is
about making the *reproduction's* hot path fast without changing a
single measured number. Three mechanisms, all byte-identical to the
slow path by construction and by test:

* **Batched store pipeline** — the write-doubling and redo paths
  accumulate per-transaction store batches on the Memory Channel
  interface instead of simulating the CPU write buffers one store at a
  time; the batch drains through
  :meth:`~repro.hardware.writebuffer.WriteBufferModel.write_batch`
  at the next commit barrier (or statistics read), in original order,
  so packet formation is unchanged.
* **Replay cache** (:mod:`repro.fastpath.replay`) — the deterministic
  workloads repeat a small set of transaction shapes; a
  barrier-terminated store schedule is canonicalized modulo the write
  buffers' block geometry, and repeated schedules replay their packet
  sequence out of a cache instead of re-running the simulation loop.
* **Process-parallel experiment runner**
  (:mod:`repro.fastpath.parallel`) — ``repro-experiments --jobs N``
  fans the grid's independent measured cells over a process pool and
  merges results deterministically.

The global switch: fast path is **on** by default and disabled by the
``REPRO_FASTPATH=0`` environment variable, the ``--no-fastpath`` CLI
flag, or :func:`set_enabled` — nothing else. Attaching an observer
does not select a path: an observed interface runs the same pipeline
and is handed its totals at ordering points.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_enabled = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """Is the fast-path execution layer globally enabled?"""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Set the global fast-path switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


@contextmanager
def disabled():
    """Context manager: run a block with the fast path off (the
    ``--no-fastpath`` escape hatch, and the tool the equivalence tests
    use to drive both paths in one process)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def forced():
    """Context manager: run a block with the fast path on."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
