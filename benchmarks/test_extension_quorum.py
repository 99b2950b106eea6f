"""Extension benchmark: leaderless quorum groups end to end.

Asserts, at full fidelity, the quorum claims: losing one replica of a
strict (3, 2, 2) group degrades the cluster to (n-1)/n rather than
zero, losing a second opens a quorum-loss window that closes on the
first recovery, anti-entropy reconverges the partitioned group, and
the sloppy pair rides through a crash that costs the passive pair a
full restore outage. The timeline is additionally asserted to be
bit-for-bit deterministic under the fixed seed.

Set ``REPRO_TRACE_DIR=somewhere`` to additionally dump the quorum
run's JSONL trace and its rendered timeline there (CI uploads them as
artifacts).
"""

import os
from pathlib import Path

from conftest import once

from repro.experiments import extension_quorum


def test_extension_quorum(ctx, benchmark, emit):
    result = once(benchmark, lambda: extension_quorum.run(ctx))
    result.check()

    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if trace_dir:
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        extension_quorum.quorum_timeline(
            seed=ctx.settings.seed,
            trace_path=str(out / "extension_quorum.trace.jsonl"),
        )
        (out / "extension_quorum.timeline.txt").write_text(
            result.timeline.trace_report.render() + "\n"
        )

    # Acceptance: the quorum loss costs ~1/N, not everything...
    timeline = result.timeline
    for sample in timeline.outage_slots():
        assert sample.completed == timeline.degraded_per_slot
        assert sample.completed > 0
    # ...the partitioned group reconverged...
    assert timeline.converged
    # ...and sloppy-quorum availability beats the passive pair's.
    comparison = result.comparison
    assert comparison.quorum_availability >= comparison.pair_availability
    assert comparison.quorum_downtime_us == 0.0

    # Determinism: replaying under the same seed reproduces every slot.
    replay = extension_quorum.quorum_timeline(seed=ctx.settings.seed)
    assert replay.samples == timeline.samples
    assert replay.router_stats == timeline.router_stats
    assert replay.group_stats == timeline.group_stats

    emit(
        "extension_quorum",
        result.table().render() + "\n\n" + result.timeline_figure(),
    )
