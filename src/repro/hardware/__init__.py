"""Hardware models for the paper's testbed.

The paper measures AlphaServer 4100 5/600 machines (four 600 MHz Alpha
21164A CPUs, 8 MB direct-mapped board cache with 64-byte lines, six
32-byte CPU write buffers) connected by a Memory Channel II SAN. This
package models the pieces of that hardware whose behaviour the paper's
results hinge on:

* :mod:`repro.hardware.specs` — machine/cache/SAN parameter records.
* :mod:`repro.hardware.cache` — the analytic miss-rate model used by
  the throughput estimator.
* :mod:`repro.hardware.writebuffer` — the 6x32-byte write-buffer
  coalescing model that turns store streams into Memory Channel
  packets (the mechanism behind Figure 1 and the logging-vs-mirroring
  result).
* :mod:`repro.hardware.cpu` — cost accounting in CPU time.
"""

from repro.hardware.specs import (
    ALPHASERVER_4100,
    MEMORY_CHANNEL_II,
    CacheSpec,
    MachineSpec,
    SanSpec,
)
from repro.hardware.cache import AnalyticCacheModel
from repro.hardware.writebuffer import WriteBufferModel
from repro.hardware.cpu import CostAccumulator

__all__ = [
    "ALPHASERVER_4100",
    "MEMORY_CHANNEL_II",
    "CacheSpec",
    "MachineSpec",
    "SanSpec",
    "AnalyticCacheModel",
    "WriteBufferModel",
    "CostAccumulator",
]
