"""A sharded bank: 4 Debit-Credit shards surviving a primary crash.

Partitions the bank by branch across four primary-backup pairs on one
discrete-event simulator, serves a steady client load through the
shard router, crashes one shard's primary mid-run, and shows what the
paper's availability story looks like at cluster scale: the failing
shard's backup takes over within a bounded window, the other three
shards never miss a transaction, and the router's retries deliver the
delayed requests once service returns — nothing is lost.

Run:  python examples/sharded_bank.py
      python examples/sharded_bank.py --trace bank.jsonl
      python examples/sharded_bank.py --chrome-trace bank.chrome.json
      python examples/sharded_bank.py --metrics-json bank.metrics.json

With ``--trace`` the whole run is recorded as a JSONL trace that
``python -m repro.obs.report bank.jsonl`` renders as a failover
timeline; ``--chrome-trace`` writes the same events in Chrome
``trace_event`` format for chrome://tracing or https://ui.perfetto.dev;
``--metrics-json`` dumps the run's metrics snapshot (counters, gauges,
histograms) as one JSON object.
"""

import argparse
import json

from repro.obs import NULL_OBSERVER, Observer, write_chrome_trace, write_jsonl
from repro.shard import Router, ShardedCluster, ShardedWorkload
from repro.vista import EngineConfig

MB = 1024 * 1024
KB = 1024

NUM_SHARDS = 4
CRASH_AT_US = 5_000.0
CRASHED_SHARD = 1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a JSONL trace of the run at PATH")
    parser.add_argument("--chrome-trace", metavar="PATH", default=None,
                        help="record a Chrome trace_event JSON at PATH")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="dump the run's metrics snapshot as JSON at PATH")
    args = parser.parse_args(argv)
    tracing = args.trace or args.chrome_trace or args.metrics_json
    observer = Observer() if tracing else NULL_OBSERVER

    config = EngineConfig(db_bytes=4 * MB, log_bytes=512 * KB)
    cluster = ShardedCluster(
        NUM_SHARDS,
        mode="active",
        config=config,
        heartbeat_interval_us=100.0,
        heartbeat_timeout_us=500.0,
        observer=observer,
    )
    workload = ShardedWorkload(
        "debit-credit", NUM_SHARDS, config.db_bytes, seed=2026
    )
    cluster.setup(workload)
    router = Router(cluster, workload, observer=observer)

    total_accounts = sum(w.accounts.records for w in workload.shards)
    print(f"bank: {total_accounts:,} accounts over {NUM_SHARDS} shards, "
          f"{workload.partitioner.total_keys} branch keys")
    for entry in cluster.shard_map.entries:
        keys = workload.partitioner.ranges[entry.shard_id]
        print(f"  shard {entry.shard_id}: branches "
              f"[{keys.start}, {keys.stop}) -> {entry.primary} "
              f"(backup {entry.backup})")

    # A steady client load: 2 transactions per shard every 250 us.
    for tick in range(80):
        at_us = tick * 250.0
        for shard_id in range(NUM_SHARDS):
            key = workload.partitioner.ranges[shard_id].start
            router.submit(key=key, at_us=at_us)
            router.submit(key=key, at_us=at_us)

    print(f"\n!! shard {CRASHED_SHARD} primary crashes at "
          f"t={CRASH_AT_US:.0f}us")
    cluster.crash(CRASHED_SHARD, 0, at_us=CRASH_AT_US)
    cluster.run_until(40_000.0)

    report = cluster.takeovers[CRASHED_SHARD]
    entry = cluster.shard_map.entry(CRASHED_SHARD)
    print(f"detected after {report.detection_us:.0f}us, "
          f"downtime {report.downtime_us:.0f}us (bounded), "
          f"new primary {entry.primary!r} at epoch {entry.epoch}")
    print(f"cluster view {cluster.membership.view_id}: "
          f"{len(cluster.membership.members)} of {2 * NUM_SHARDS} nodes up")
    print(router)

    assert router.dropped == 0 and router.in_flight == 0
    assert report.downtime_us < 1_500.0  # detection + (tiny) redo drain

    for shard_id in range(NUM_SHARDS):
        workload.verify_shard(shard_id, cluster.serving(shard_id))
    print(f"\nall {NUM_SHARDS} shards verified against their shadow "
          f"models: {workload.transactions_run} transactions, none lost, "
          f"3/4 of the cluster never blinked")

    if args.trace:
        write_jsonl(args.trace, observer.recorder.events,
                    metrics=observer.registry)
        print(f"\ntrace written to {args.trace} "
              f"({len(observer.recorder.events)} events) — render it with "
              f"'python -m repro.obs.report {args.trace}'")
    if args.chrome_trace:
        write_chrome_trace(args.chrome_trace, observer.recorder.events)
        print(f"chrome trace written to {args.chrome_trace} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(observer.registry.snapshot(), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics snapshot written to {args.metrics_json} "
              f"({len(observer.registry)} metrics)")


if __name__ == "__main__":
    main()
