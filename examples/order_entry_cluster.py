"""Order-Entry on every replication design, side by side.

Runs the paper's Order-Entry benchmark (TPC-C update transactions)
against all four passive-backup versions and the active backup,
reporting estimated throughput on the paper's hardware, traffic
breakdowns, and packet-size distributions — a compact rerun of
Tables 4-7 on one workload.

Run:  python examples/order_entry_cluster.py
"""

from repro.experiments.common import (
    ExperimentContext,
    ExperimentSettings,
    active_cell,
    passive_cell,
)
from repro.perf.report import ReportTable
from repro.vista.factory import ENGINE_VERSIONS

MB = 1024 * 1024


def main() -> None:
    ctx = ExperimentContext(
        ExperimentSettings(transactions=600, warmup=50,
                           allocated_db_bytes=4 * MB)
    )
    workload = "order-entry"

    table = ReportTable(
        "Order-Entry: every replication design (estimated on the "
        "paper's AlphaServer + Memory Channel II)",
        ["design", "txns/sec", "bytes/txn", "mean packet", "meta share"],
    )
    designs = {
        f"passive {engine.TITLE}": passive_cell(version, workload)
        for version, engine in ENGINE_VERSIONS.items()
    }
    designs["active (redo log)"] = active_cell(workload)
    for design, spec in designs.items():
        result = ctx.read(spec)
        per_txn = result.traffic_per_txn()
        table.add_row(
            design,
            ctx.report(spec).tps,
            per_txn["total"],
            f"{result.packet_trace.mean_packet_bytes():.1f} B",
            f"{per_txn.get('meta', 0) / per_txn['total']:.0%}",
        )
    table.add_note("ordering matches the paper: v0 < v1 < v2 < v3 < active")
    print(table.render())

    print()
    breakdown = ctx.report(passive_cell("v3", workload)).breakdown
    print("where a passive-V3 transaction spends its time (us):")
    for component, micros in breakdown.cpu.items():
        print(f"  cpu/{component:<12} {micros:6.2f}")
    print(f"  cache stalls     {breakdown.cache_stall_us:6.2f}")
    print(f"  io-space stores  {breakdown.io_issue_us:6.2f}")
    print(f"  SAN link time    {breakdown.link_time_us:6.2f} (overlapped)")


if __name__ == "__main__":
    main()
