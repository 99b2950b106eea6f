"""Recovery-time comparison: what failover actually costs per design.

Uses a one-shard :class:`~repro.shard.cluster.ShardedCluster` — one
primary-backup pair with its nodes, heartbeats and failover wired
together on the discrete-event simulator — to crash a primary under
load for every replication design and report detection latency, bytes
restored, and total downtime. The Section 5.1 tradeoff (mirror versions
restore the *whole database*) shows up directly in the measurements, as
does the availability gap to standalone Vista.

Run:  python examples/recovery_comparison.py
"""

from repro.experiments import extension_recovery
from repro.perf.report import ReportTable
from repro.shard import ShardedCluster
from repro.vista import EngineConfig
from repro.workloads import DebitCreditWorkload

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=8 * MB, log_bytes=1 * MB)

DESIGNS = (
    ("active", "v3"),
    ("passive", "v3"),
    ("passive", "v2"),
    ("passive", "v1"),
    ("passive", "v0"),
)


def main() -> None:
    table = ReportTable(
        "Measured failover under load (8 MB database, 500 us heartbeat "
        "timeout)",
        ["design", "detection", "bytes restored", "downtime"],
    )
    for mode, version in DESIGNS:
        cluster = ShardedCluster(
            1, mode=mode, version=version, config=CONFIG,
            heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
        )
        pair = cluster.pairs[0]
        workload = DebitCreditWorkload(CONFIG.db_bytes, seed=99)
        workload.setup(pair.serving)
        for _ in range(100):
            workload.run_transaction(pair.serving)
        cluster.crash(0, 0, at_us=5_000.0)
        cluster.run_until(1_000_000.0)
        report = pair.takeover
        workload.verify(pair.serving)  # takeover preserved every commit
        label = f"{mode} {version}" if mode == "passive" else "active"
        table.add_row(
            label,
            f"{report.detection_us:.0f} us",
            report.bytes_restored,
            f"{report.downtime_us / 1000:.2f} ms",
        )
    table.add_note("every takeover verified against the workload's "
                   "shadow model before reporting")
    print(table.render())

    print()
    result = extension_recovery.run()
    result.check()
    print(result.table().render())


if __name__ == "__main__":
    main()
