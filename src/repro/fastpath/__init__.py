"""The machinery that makes the *reproduction's* hot path fast without
changing a single measured number.

There is no switch here and no second path: each component below is
the only implementation under ``src/``, and the plain original it
replaced lives in ``tests/oracles/`` with a Hypothesis suite holding
the pair equal (DESIGN section 10 has the table).

* **Deferred store pipeline** — the Memory Channel interface
  (:mod:`repro.san.memory_channel`) moves a store's bytes and counts
  it at issue, but defers the write-buffer simulation to the next
  ordering point (commit barrier, statistics read, crash), where the
  batch drains in original order through
  :meth:`~repro.hardware.writebuffer.WriteBufferModel.write_batch`,
  so packet formation is unchanged.
* **Replay cache** (:mod:`repro.fastpath.replay`) — the deterministic
  workloads repeat a small set of transaction shapes; a
  barrier-terminated store schedule is canonicalized modulo the write
  buffers' block geometry, and repeated schedules replay their packet
  sequence out of a cache instead of re-running the simulation loop.
* **Diff kernel** (:mod:`repro.fastpath.kernels`) — the big-int XOR
  scan behind Version 2's mirror refresh and the Merkle leaf compare.
* **Process-parallel experiment runner**
  (:mod:`repro.fastpath.parallel`) — ``repro-experiments --jobs N``
  fans the grid's independent measured cells over a process pool and
  merges results deterministically.
* **Timeline driver and plans** (:mod:`repro.fastpath.shardpar`) — the
  failover timelines' one run scaffold, and the sharded schedule as data.

Attaching an observer does not select a path either: an observed
interface runs the same pipeline and is handed its totals at ordering
points.
"""
