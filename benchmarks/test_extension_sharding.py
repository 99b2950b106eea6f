"""Extension benchmark: sharded scaling and single-shard failover.

Asserts, at full fidelity, the two sharding claims: near-linear
aggregate throughput over disjoint shards (1 -> 4 pairs on dedicated
links), and a single-shard crash that degrades aggregate throughput to
(n-1)/n during the takeover window rather than to zero. The failover
timeline is additionally asserted to be bit-for-bit deterministic
under the fixed seed.

Set ``REPRO_TRACE_DIR=somewhere`` to additionally dump the failover
run's JSONL trace and its rendered timeline there (CI uploads them as
artifacts).
"""

import os
from pathlib import Path

from conftest import once

from repro.experiments import extension_sharding
from repro.obs import write_jsonl


def test_extension_sharding(ctx, benchmark, emit):
    result = once(benchmark, lambda: extension_sharding.run(ctx))
    result.check()

    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if trace_dir:
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_jsonl(
            out / "extension_sharding.trace.jsonl",
            result.timeline.trace_events,
        )
        (out / "extension_sharding.timeline.txt").write_text(
            result.timeline.trace_report.render() + "\n"
        )

    # Acceptance: near-linear 1 -> 4 on dedicated links...
    by_shards = {r.shards: r for r in result.scaling}
    assert by_shards[4].dedicated_tps >= 3.6 * by_shards[1].dedicated_tps
    # ...and the crash costs ~1/N, not everything.
    timeline = result.timeline
    for sample in timeline.outage_slots():
        assert sample.completed == timeline.degraded_per_slot
        assert sample.completed > 0

    # Determinism: replaying the timeline under the same seed
    # reproduces every slot exactly.
    replay = extension_sharding.failover_timeline(seed=ctx.settings.seed)
    assert replay.samples == timeline.samples
    assert replay.router_stats == timeline.router_stats

    emit(
        "extension_sharding",
        result.table().render() + "\n\n" + result.timeline_figure(),
    )
