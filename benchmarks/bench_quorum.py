"""Wall-clock benchmark of the quorum subsystem.

Measures three things and writes them to the root ``BENCH_quorum.json``
(the perf-trajectory tracker reads root-level ``BENCH_*.json`` files):

* **repair** — Merkle anti-entropy throughput: MB/s of replica digest
  state reconciled per second on lightly and heavily diverged replica
  pairs.
* **read** — a driven (3, 2, 2) strict group: simulated quorum-read
  latency p50/p99 (deterministic) plus measured Python-side
  operations per second (informational).
* **experiment** — the full ``extension_quorum`` experiment end to
  end, shape checks included.

Usage::

    python benchmarks/bench_quorum.py                     # measure
    python benchmarks/bench_quorum.py --check BENCH_quorum.json

Reports are written in the canonical ``repro-bench-v1`` trajectory
format; ``--check BASELINE`` delegates to
``python -m repro.obs.bench compare`` and exits non-zero if a
simulated quorum-read latency (deterministic, so any drift is a model
change) moved past the committed baseline's.
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import MB, REPO, finalize, flatten_metrics

#: Keys per replica in the repair benchmark (digest state is
#: ``keys * DIGEST_BYTES`` per side).
REPAIR_KEYS = 16384


# -- repair MB/s ------------------------------------------------------------


def _diverged_pair(divergence: float):
    from repro.quorum.store import Record, ReplicaStore
    from repro.quorum.versions import VersionVector

    a, b = ReplicaStore(REPAIR_KEYS), ReplicaStore(REPAIR_KEYS)
    stride = max(1, int(1.0 / divergence))
    for key in range(REPAIR_KEYS):
        record = Record(
            value=b"v%08d" % key, vv=VersionVector([(0, 1)]),
            ts_us=float(key), writer=0,
        )
        a.apply(key, record)
        if key % stride:
            b.apply(key, record)
        else:
            b.apply(key, Record(
                value=b"w%08d" % key, vv=VersionVector([(1, 1)]),
                ts_us=float(key) + 0.5, writer=1,
            ))
    return a, b


def _time_sync(divergence: float, repeats: int) -> float:
    from repro.quorum.merkle import anti_entropy_sync

    total = 0.0
    for _ in range(repeats):
        a, b = _diverged_pair(divergence)
        started = time.perf_counter()
        anti_entropy_sync(a, b, 8)
        total += time.perf_counter() - started
    return total


def bench_repair() -> dict:
    from repro.quorum.store import DIGEST_BYTES

    report = {}
    for label, divergence, repeats in (("sparse", 1 / 256, 5),
                                       ("dense", 1 / 4, 3)):
        # Digest state walked per sync: both replicas' full key range.
        volume_mb = 2 * REPAIR_KEYS * DIGEST_BYTES * repeats / MB
        sync_s = _time_sync(divergence, repeats)
        report[label] = {"kernel_mb_per_s": round(volume_mb / sync_s, 1)}
    return report


# -- quorum-read latency ----------------------------------------------------


def bench_reads(operations: int = 4000) -> dict:
    from repro.quorum.group import QuorumGroup
    from repro.sim.engine import Simulator

    sim = Simulator()
    group = QuorumGroup(
        group_id=0, num_replicas=3, read_quorum=2, write_quorum=2,
        num_keys=64, sim=sim,
    )
    for key in range(64):
        group.write(key, b"seed-%d" % key)
    started = time.perf_counter()
    for index in range(operations):
        group.read(index % 64)
    wall_s = time.perf_counter() - started

    latencies = sorted(group.read_latencies[-operations:])
    p50 = latencies[operations // 2]
    p99 = latencies[int(operations * 0.99)]
    return {
        "operations": operations,
        "simulated_p50_us": round(p50, 3),
        "simulated_p99_us": round(p99, 3),
        "reads_per_s": round(operations / wall_s, 0),
    }


# -- end-to-end experiment --------------------------------------------------


def bench_experiment() -> dict:
    from repro.experiments import extension_quorum
    from repro.experiments.common import ExperimentContext, ExperimentSettings

    ctx = ExperimentContext(ExperimentSettings())
    started = time.perf_counter()
    result = extension_quorum.run(ctx)
    wall_s = time.perf_counter() - started
    result.check()
    loss = result.timeline.quorum_loss
    return {
        "wall_s": round(wall_s, 3),
        "downtime_us": loss.restored_at_us - loss.crash_at_us,
        "hints_delivered": result.comparison.hints_delivered,
        "checks": "passed",
    }


# -- report / main ----------------------------------------------------------

#: Regression-gated metrics: simulated time, so the tolerance is
#: effectively an equality check (lower is better).
GATES = {
    "read.simulated_p50_us": "lower",
    "read.simulated_p99_us": "lower",
}

UNITS = {
    "repair.sparse.kernel_mb_per_s": "MB/s",
    "repair.dense.kernel_mb_per_s": "MB/s",
    "read.simulated_p50_us": "us",
    "read.simulated_p99_us": "us",
    "read.reads_per_s": "op/s",
    "experiment.wall_s": "s",
    "experiment.downtime_us": "us",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO / "BENCH_quorum.json"),
        help="where to write the measured report (default: repo root)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the simulated read latencies against a committed "
        "baseline JSON; exit 1 on a >20%% regression",
    )
    parser.add_argument(
        "--skip-experiment", action="store_true",
        help="microbenchmarks only (quick local iteration)",
    )
    args = parser.parse_args(argv)

    report = {
        "repair": bench_repair(),
        "read": bench_reads(),
    }
    for label in ("sparse", "dense"):
        section = report["repair"][label]
        print(f"[repair {label}] {section['kernel_mb_per_s']:.1f} MB/s")
    read = report["read"]
    print(
        f"[read] simulated p50 {read['simulated_p50_us']:.1f} us, "
        f"p99 {read['simulated_p99_us']:.1f} us; "
        f"{read['reads_per_s']:.0f} reads/s wall"
    )
    if not args.skip_experiment:
        report["experiment"] = bench_experiment()
        exp = report["experiment"]
        print(
            f"[experiment] extension_quorum in {exp['wall_s']:.1f}s, "
            f"quorum downtime {exp['downtime_us']:.0f} us, "
            f"{exp['hints_delivered']} hints delivered"
        )

    return finalize("quorum", flatten_metrics(report, GATES, UNITS),
                    args.output, check_path=args.check)


if __name__ == "__main__":
    sys.exit(main())
