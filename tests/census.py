"""Census: every def, block, defaulted parameter and dataclass field
under ``src/`` that a production run executes or varies.

``tests/test_no_dead_surface.py`` matches uses by bare name, so a
collision keeps a def alive there (``rio.reboot()`` once kept a
``Node.reboot`` alive), and it sees no branches, parameters or fields
at all. This script measures instead, with one instrument: an import
hook that compiles every ``repro.*`` module from its source with a
probe at the top of every def body and every branch body (``if`` /
``elif`` / ``else``, a loop and its ``else``, ``try`` / ``except`` /
``else`` / ``finally``, ``with``). It writes no bytecode cache. Under
it the script runs the production entry points below:

* ``repro-experiments --transactions 1000`` over the whole grid,
  sequentially, and a small ``--jobs 2`` grid for the pool path;
* every ``examples/*.py`` as ``__main__``, plus ``sharded_bank.py``
  with every output flag and ``quorum_kv.py --trace``;
* ``failover_timeline(trace_path=)`` and ``quorum_timeline(trace_path=)``;
* ``python -m repro.obs.report`` over those four traces with every
  flag, and ``--diff`` against itself and against another trace;
* one traced pass of each of the six ledger workloads at its self-test
  size, with its kernel probes.

Then it makes four passes, and fails on anything one of them finds
that its allow-list does not hold, or on an entry that is gone or no
longer found:

* **defs** (:data:`ALLOWED`): a tracked def whose body never ran. A
  tracked def is what the name guard tracks: a module-level function,
  or a method or property in a class body, dunders exempt. A body that
  is only a docstring, ``...`` or ``pass``, an ``@abstractmethod`` and
  a def in an ``except`` clause (an interpreter-version fallback) have
  no code to run here and are exempt too.
* **parameters** (:data:`ALLOWED_PARAMETERS`): a defaulted parameter
  of a tracked def that ran (a dunder's too, so constructors count)
  that no call bound to anything but its default. A parameter *varies*
  when some call binds it to a value that is not its default: neither
  the default object itself nor an equal value of the same type, so
  passing the default explicitly does not count, nor does ``None`` to
  a ``None`` default. The def's entry probe compares its parameters
  with the defaults it recorded when the def was made, and switches
  itself off once every one has varied.
* **blocks** (:data:`ALLOWED_BLOCKS`): a block that never ran although
  the block around it did, inside a def that ran. A block whose first
  statement is ``raise`` is a check and exempt, and so is one that is
  only a docstring, ``...`` or ``pass``. An entry is keyed by the def's
  qualname and the block's first statement, so an edit above the
  block does not invalidate it.
* **fields** (:data:`ALLOWED_FIELDS`): a defaulted field of a
  dataclass under ``src/`` that nothing assigns after construction
  (the class is frozen, or no attribute of that name is stored under
  ``src/``) and that no construction sets to anything but its default,
  by the parameter rule. A field whose default factory makes an empty
  container is per-instance state, not a knob. The generated
  ``__init__`` is wrapped while a field is still to vary.

A probe is ``if __census_live__[k]: __census_probe__(k)``: it calls
out once and then costs a list lookup, which is what keeps the census
cheaper than a trace hook. The hook is installed before any ``repro``
import, so code run at import time counts too. Every allow-list reason
is one of :data:`ALLOWED`'s groups or one of the four parameter
reasons; a block or field kept for a tier-1 test names that test.

Run it from the repository root (under a minute on two cores)::

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import functools
import importlib.machinery
import io
import re
import runpy
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
LEDGER = ROOT / "benchmarks" / "ledger"

#: The full grid's size; every allow-list was measured at it (the
#: redo-ring wrap and the SMP link's tie-break stay unreached there).
GRID_TRANSACTIONS = 1000

#: The reasons an allow-list may give; there are no others. Each of
#: the four passes reuses them.
_SAFETY = ("RVM abort and local-recovery paths the benchmarks never take "
           "(safety code)")
_WRAP = ("redo-ring wrap: runs only past 1 MB of redo (the full-size "
         "txn-active ledger run reaches it, the self-test size does not)")
_ERRORS = "error and violation paths"
_NULL = "NullObserver mirrors Observer; every call site checks enabled first"
_QUEUE = "the queue protocol both event queues share"
_POOL = "runs only in the --jobs pool's worker processes"
_TIE = ("the SMP link's equal-instant tie-break, exact to the polling "
        "oracle; the grid's packet mixes never tie")
_BENCHMARK = ("a frozen benchmark passes it (benchmarks/ledger/ may not "
              "change, nor the committed benchmarks/results/ renderings)")
_CLI = "a documented CLI flag reaches it"
_CHECK = "it switches a check on"
_TEST = ("a named tier-1 test needs a value the production default makes "
         "infeasible")
REASONS = (_SAFETY, _WRAP, _ERRORS, _NULL, _QUEUE, _POOL, _TIE,
           _BENCHMARK, _CLI, _CHECK, _TEST)

#: Why a def never runs in the census -> the defs it covers.
ALLOWED = {
    _SAFETY: (
        "repro.replication.active:ActiveReplicatedSystem.abort_transaction",
        "repro.replication.passive:PassiveReplicatedSystem.abort_transaction",
        "repro.vista.v1_mirror_copy:MirrorCopyEngine._on_recover",
    ),
    _WRAP: (
        "repro.replication.redo_log:_split_run",
        "repro.replication.redo_log:RedoLogApplier._frame_end",
    ),
    _ERRORS: (
        "repro.san.memory_channel:MemoryChannelInterface._refuse",
        "repro.obs.audit:TraceAuditor._flag",
        "repro.obs.audit:Violation.to_dict",
        "repro.obs.diff:Divergence.to_dict",
        "repro.workloads.layout:Table._no_record",
    ),
    _NULL: (
        "repro.obs.observer:NullObserver.linked_span",
        "repro.obs.observer:NullObserver.metric_name",
        "repro.obs.observer:NullObserver.new_trace_id",
        "repro.obs.observer:NullObserver.now",
    ),
    _QUEUE: (
        "repro.sim.events:EventQueue.distinct_times",
        "repro.sim.events:BucketedEventQueue.peek_time",
    ),
    _POOL: (
        "repro.experiments.cells:compute_cell",
    ),
    _TIE: (
        "repro.perf.smp_sim:_grid",
    ),
}

#: Why a defaulted parameter of a def that runs keeps a default no
#: production run changes -> ``{parameter: where it is needed}``. Only
#: these four reasons keep such a knob; any other becomes a constant.
ALLOWED_PARAMETERS = {
    _BENCHMARK: {
        "repro.experiments.extension_smp_sim:run(duration_us=)":
            "benchmarks/test_paper_tables.py renders smp-validation at "
            "15,000 us",
        "repro.experiments.extension_smp_sim:points(duration_us=)":
            "run's duration_us, forwarded",
        "repro.fastpath.shardpar:execute(jobs=)":
            "failover-timeline runs execute(plan, jobs=1, ...)",
        "repro.experiments.extension_sharding:failover_plan("
        "offered_per_shard=)":
            "failover-timeline passes its spec size",
        "repro.experiments.extension_sharding:failover_plan(seed=)":
            "failover-timeline passes the run's seed (42 or 7)",
        "repro.experiments.extension_quorum:quorum_timeline(seed=)":
            "failover-timeline passes the run's seed (42 or 7)",
        "repro.memory.region:MemoryRegion.copy_from(category=)":
            "the memory_region probe calls copy_from(source, 0, 0, "
            "length); V1's recovery, which abort runs (ALLOWED), passes "
            "MODIFIED",
    },
    _CLI: {
        "repro.obs.report:analyze_timeline(window_us=)":
            "python -m repro.obs.report --window-us",
        "repro.experiments.extension_quorum:availability_comparison("
        "seed=)":
            "repro-experiments --seed, through the quorum experiment",
    },
    _CHECK: {
        "repro.obs.audit:audit_events(max_lag_bytes=)":
            "a hard bound on the redo ring's apply lag",
        "repro.obs.audit:TraceAuditor.__init__(max_lag_bytes=)":
            "a hard bound on the redo ring's apply lag",
    },
    _TEST: {
        "repro.replication.active:ActiveReplicatedSystem.__init__("
        "ring_bytes=)":
            "test_ring_exercises_wraparound_and_blocking wraps a "
            "128-byte ring (the default takes 1 MB of redo to wrap)",
        "repro.perf.smp_sim:simulate_smp(san=)":
            "test_equal_timestamp_ties_go_to_the_event_queued_first "
            "needs a link whose packet times tie (DYADIC_SAN)",
        "repro.perf.smp_sim:simulate_smp(buffer_bytes=)":
            "test_zero_buffer_and_empty_schedule_are_still_valid: a "
            "zero buffer stalls every post",
        "repro.quorum.group:QuorumGroup.apply_partition(symmetric=)":
            "test_asymmetric_partition_cuts_one_direction_only",
        "repro.shard.cluster:RoutedCluster.partition(symmetric=)":
            "test_partition_without_heal_is_permanent cuts one "
            "direction",
    },
}

#: Why a block inside a def that runs never runs -> the blocks it
#: covers, as ``"qualname: first statement"`` (its first 64 characters
#: or fewer);
#: a block kept for a tier-1 test maps to the test that executes it.
#: Checks stay: a block that refuses an operation, reports a violation
#: or guards input from outside the program (a trace file, a CLI
#: argument) is an error path, and a boundary case of a general
#: structure (a list end, a zero total) names its test.
ALLOWED_BLOCKS = {
    _ERRORS: (
        "repro.experiments.extension_sensitivity:_evaluate: active_ok = False",
        "repro.experiments.extension_sensitivity:_evaluate: collapse_ok = "
        "False",
        "repro.experiments.extension_sensitivity:_evaluate: ordering_ok = "
        "False",
        "repro.experiments.extension_sensitivity:_evaluate: smp_ok = False",
        "repro.experiments.extension_sensitivity:run: "
        "failures.append((conclusion, point))",
        'repro.experiments.runner:main: parser.error(f"--{flag} must be at '
        "least 1, got {getattr(args,",
        'repro.experiments.runner:main: parser.error(f"unknown experiment '
        '{name!r}; choose from "',
        "repro.memory.region:MemoryRegion.copy_from: "
        "self._check_bounds(dst_offset, length)",
        "repro.memory.region:MemoryRegion.copy_from: "
        "src._check_bounds(src_offset, length)",
        "repro.memory.region:MemoryRegion.load_snapshot: "
        "self._check_bounds(0, 0)",
        "repro.memory.region:MemoryRegion.read: "
        "self._check_bounds(offset, length)",
        "repro.memory.region:MemoryRegion.view: "
        "self._check_bounds(offset, length)",
        "repro.memory.region:MemoryRegion.read_u64: "
        "self._check_bounds(offset, 8)",
        "repro.memory.region:MemoryRegion.write_u64: "
        "self._check_bounds(offset, 8)",
        'repro.obs.alerts:AlertVerification.render: lines.append(f" false '
        'fire: {item}")',
        'repro.obs.audit:AuditReport.render: lines.append(f" {violation}")',
        "repro.obs.audit:TraceAuditor._check_advances: "
        'self._flag("epoch-monotone", event, f"{what} did not advance:',
        "repro.obs.audit:TraceAuditor._check_alert_grounding: "
        'self._flag("alert-grounded", event, f"justified {event.name}',
        "repro.obs.audit:TraceAuditor._check_alert_grounding: "
        'self._flag("alert-grounded", event, f"{event.name} for rule',
        "repro.obs.audit:TraceAuditor._check_commit: lag = "
        'int(event.attrs.get("ring_lag_bytes", 0))',
        "repro.obs.audit:TraceAuditor._check_completion: "
        'self._flag("downtime-completion", event, f"transaction',
        "repro.obs.audit:TraceAuditor._check_quorum: "
        'self._flag("quorum-intersection", event, f"strict group',
        "repro.obs.audit:TraceAuditor._check_quorum: "
        'self._flag("quorum-intersection", event, f"{event.name}',
        "repro.obs.audit:TraceAuditor._check_read_vv: "
        'self._flag("vv-monotone", event, f"strict read returned',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, child, f"recovery phase {phase!r} starts at "',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, child, f"recovery.phase child references',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, child, f"unknown recovery phase {phase!r}",',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, root, f"last recovery phase ends at',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, root, f"recovery span [{root.ts_us:.1f},',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        'self._flag(rule, root, f"recovery span duration',
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: "
        "self.violations.append(Violation(rule, start, scope or",
        'repro.obs.audit:TraceAuditor._check_ring: self._flag("lag-bound", '
        'event, f"apply lag {lag} bytes exceeds',
        "repro.obs.audit:TraceAuditor._check_ring: "
        'self._flag("ring-monotone", event, f"consumer passed producer:',
        "repro.obs.audit:TraceAuditor._check_ring: "
        'self._flag("ring-monotone", event, f"consumer pointer went',
        "repro.obs.audit:TraceAuditor._check_ring: "
        'self._flag("ring-monotone", event, f"producer pointer went',
        "repro.obs.audit:TraceAuditor._check_ring: "
        'self._flag("ring-overrun", event, f"producer lapped consumer:',
        "repro.obs.audit:TraceAuditor._check_write_vv: return",
        "repro.obs.audit:TraceAuditor._check_write_vv: "
        'self._flag("vv-monotone", event, f"write coordinator',
        "repro.obs.audit:TraceAuditor.feed: "
        "self._orphan_children.append(event)",
        "repro.obs.audit:TraceAuditor.feed: "
        "self._recovery_orphans.append(event)",
        'repro.obs.audit:TraceAuditor.finish: self._flag("span-sum", child, '
        'f"commit.phase child references',
        'repro.obs.audit:TraceAuditor.finish: self._flag("span-sum", '
        'parent, f"commit span duration',
        "repro.obs.diff:TraceDiff.first_divergence: return "
        "min(self.baseline_count, self.current_count)",
        "repro.obs.export:read_jsonl: record = error",
        "repro.obs.recovery:collect_recoveries: continue",
        'repro.obs.report:main.<locals>._diff: parser.error(f"cannot read '
        'baseline file: {error}")',
        'repro.obs.report:main: parser.error("--scope requires --slo, '
        '--spans or --recovery")',
        'repro.obs.report:main: parser.error(f"cannot read trace file: '
        '{error}")',
        'repro.obs.slo:SloReport.render: lines.append(" trace audit: FAIL — '
        "availability figures are NOT",
        "repro.obs.spans:collect_span_forest: continue",
        "repro.san.memory_channel:TransmitMapping.write: "
        "interface._refuse(self, offset, length)",
        "repro.sim.engine:Simulator.run: advance_to(when)",
    ),
    _WRAP: (
        "repro.replication.redo_log:RedoLogApplier.apply_one: available = "
        "self._frame_end(ring, position, available)",
        "repro.replication.redo_log:RedoLogProducer.publish: if drain is "
        "None or drain() == 0",
        "repro.replication.redo_log:RedoLogProducer.try_publish: head, "
        "parts = _split_run(parts, edge)",
        "repro.replication.redo_log:RedoLogProducer.try_publish: "
        "self.blocked_publishes += 1",
    ),
    _TIE: (
        "repro.perf.smp_sim:simulate_smp.<locals>.complete: "
        "due[tick].append((index, stalled))",
        "repro.perf.smp_sim:simulate_smp.<locals>.complete: tick += POLL_US",
        "repro.perf.smp_sim:simulate_smp.<locals>.poll_history: index, "
        "stalled = entry",
        "repro.perf.smp_sim:simulate_smp.<locals>.wake: "
        "batch.sort(key=poll_history)",
        "repro.perf.smp_sim:simulate_smp.<locals>.wake: schedule_at(now, "
        'wake, "wake")',
    ),
    _TEST: {
        "repro.cluster.membership:Membership.fail: return":
            "tests/cluster/test_membership.py::"
            "TestMembership::test_fail_unknown_is_noop",
        "repro.experiments.extension_sharding:OutageTimeline.__post_init__: "
        "self.samples.append(SlotSample(end_us, 0, tail))":
            "tests/obs/test_export.py::"
            "test_failover_trace_round_trips_through_disk[7]",
        "repro.experiments.extension_sharding:reads: return {}":
            "tests/fastpath/test_parallel_runner.py::"
            "test_plan_covers_every_cell_an_experiment_reads[sharding]",
        "repro.fastpath.kernels:diff_runs_fast: runs.append((run_start, pos "
        "+ w * word - run_start))":
            "tests/properties/test_kernel_properties.py::"
            "test_kernel_closes_a_run_left_open_at_a_chunk_edge",
        "repro.fastpath.kernels:diff_runs_fast: runs.append((run_start, pos "
        "- run_start))":
            "tests/properties/test_kernel_properties.py::"
            "test_kernel_closes_a_run_left_open_at_a_chunk_edge",
        "repro.fastpath.parallel:run_tasks: return [worker(task) for task "
        "in tasks]":
            "tests/fastpath/test_parallel_runner.py::"
            "test_run_tasks_preserves_task_order",
        "repro.fastpath.replay:PacketReplayCache.canonical_key: stores = []":
            "tests/san/test_memory_channel.py::"
            "test_run_keeps_one_store_per_part_where_parts_meet_mid_block",
        "repro.fastpath.replay:PacketReplayCache.drain_sizes: "
        "self._entries.popitem(last=False)":
            "tests/properties/test_fastpath_properties.py::"
            "test_replay_cache_evicts_its_oldest_schedule_past_its_bound",
        "repro.hardware.cache:AnalyticCacheModel.miss_rate: return 0.0":
            "tests/hardware/test_cache.py::test_analytic_zero_working_set",
        "repro.hardware.writebuffer:WriteBufferModel.account_replayed: "
        "for size in sizes":
            "tests/properties/test_fastpath_properties.py::"
            "test_account_replayed_matches_write_batch_statistics",
        "repro.hardware.writebuffer:WriteBufferModel._may_close_early: "
        "return True":
            "tests/san/test_memory_channel.py::"
            "test_run_keeps_one_store_per_part_where_parts_meet_mid_block",
        "repro.hardware.writebuffer:WriteBufferModel.write_batch: continue":
            "tests/hardware/test_writebuffer.py::"
            "test_zero_length_write_is_noop",
        "repro.hardware.writebuffer:WriteBufferModel.write_batch: split = []":
            "tests/san/test_memory_channel.py::"
            "test_run_keeps_one_store_per_part_where_parts_meet_mid_block",
        "repro.memory.allocator:HeapAllocator.free: "
        "stores.append((first + _PREV, block))":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_free_everything_restores_capacity",
        "repro.memory.allocator:HeapAllocator._unlink: "
        "stores.append((nxt + _PREV, prev))":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_free_everything_restores_capacity",
        "repro.memory.allocator:HeapAllocator.free: prev_size = "
        "read(block - 16)":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_free_everything_restores_capacity",
        "repro.memory.allocator:HeapAllocator.malloc: stores += ((block, "
        "size), (block + 8, _USED), (end - 16, size),":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_first_fit_past_the_head_of_the_free_list",
        "repro.memory.allocator:HeapAllocator.malloc: "
        "stores = [(prev + _NEXT, nxt)]":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_first_fit_past_the_head_of_the_free_list",
        "repro.memory.allocator:HeapAllocator.malloc: "
        "stores.append((first + _PREV, rest))":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_first_fit_past_the_head_of_the_free_list",
        "repro.memory.allocator:HeapAllocator.malloc: "
        "stores.append((nxt + _PREV, prev))":
            "tests/memory/test_allocator.py::"
            "TestHeapAllocator::test_first_fit_past_the_head_of_the_free_list",
        "repro.memory.region:MemoryRegion.write_words: "
        "pairs = pairs[stores:]":
            "tests/properties/test_word_lane_properties.py::"
            "test_an_unobserved_batch_stops_at_a_refused_word",
        "repro.memory.region:MemoryRegion.write_words: break":
            "tests/properties/test_word_lane_properties.py::"
            "test_a_refused_pair_sends_the_whole_batch_per_store",
        "repro.memory.region:MemoryRegion.write_words: "
        "self.write_u64(offset, value)":
            "tests/properties/test_word_lane_properties.py::"
            "test_each_case_takes_the_lane_it_names[per-store-observer-after]",
        "repro.memory.region:MemoryRegion.copy_from: return":
            "tests/memory/test_region.py::"
            "test_copy_within_zero_length_checks_source_bounds",
        "repro.memory.region:MemoryRegion.write: return":
            "tests/memory/test_region.py::test_empty_write_is_noop",
        "repro.obs.audit:TraceAuditor._check_recovery_tiling: continue":
            "tests/obs/test_audit_recovery.py::"
            "test_a_window_still_open_at_the_trace_end_needs_no_span",
        "repro.obs.critpath:ScopeDecomposition.share: return 0.0":
            "tests/obs/test_critpath.py::"
            "test_no_downtime_gives_every_phase_a_zero_share",
        "repro.obs.diff:diff_events: index = min(len(a), len(b))":
            "tests/obs/test_diff.py::"
            "test_added_and_removed_events_reported_as_presence",
        "repro.obs.metrics:Histogram.quantile: return 0.0":
            "tests/obs/test_metrics.py::"
            "test_empty_histogram_summary_is_zeroed",
        "repro.obs.observer:Observer.scoped: return self":
            "tests/obs/test_observer.py::"
            "test_scoped_observer_prefixes_and_shares_state",
        "repro.obs.series:_sparkline: for b in range(width)":
            "tests/obs/test_series.py::"
            "test_render_buckets_a_long_series_to_the_spark_width",
        "repro.obs.series:windowed_goodput: return []":
            "tests/obs/test_series.py::test_goodput_sums_to_total_increase",
        "repro.obs.series:windowed_goodput: windows.extend([0.0] * (index + "
        "1 - len(windows)))":
            "tests/obs/test_series.py::"
            "test_windowed_goodput_opens_a_window_for_a_repeated_last_tick",
        "repro.obs.slo:ScopeAvailability.availability: return 1.0":
            "tests/obs/test_slo.py::test_an_empty_horizon_is_fully_available",
        "repro.obs.slo:nines: return 0.0":
            "tests/obs/test_slo.py::test_nines_math",
        'repro.obs.spans:PhaseAttribution.render: lines.append(" no commit '
        'spans in this trace")':
            "tests/obs/test_spans.py::test_empty_attribution_renders",
        "repro.obs.spans:PhaseAttribution.share: return 0.0":
            "tests/obs/test_spans.py::"
            "test_no_commit_time_gives_every_phase_a_zero_share",
        "repro.obs.trace:pair_outages: scoped.append((None, event))":
            "tests/obs/test_audit_recovery.py::"
            "test_auditor_downtime_windows_equal_the_shared_pairing",
        'repro.perf.report:ratio: return "-"':
            "tests/perf/test_report.py::test_ratio",
        "repro.perf.throughput:ThroughputEstimator.smp_aggregate: return "
        "processors * single.tps":
            "tests/perf/test_throughput.py::test_smp_linear_when_link_is_free",
        "repro.quorum.group:QuorumGroup._deliver_hints: continue":
            "tests/quorum/test_group.py::"
            "test_hints_wait_out_a_partition_and_meet_as_siblings",
        "repro.quorum.group:QuorumGroup.crash_member: return":
            "tests/quorum/test_group.py::"
            "test_a_fault_a_member_is_already_in_changes_nothing",
        "repro.quorum.group:QuorumGroup.read: self.stats.sibling_reads += 1":
            "tests/quorum/test_group.py::"
            "test_hints_wait_out_a_partition_and_meet_as_siblings",
        "repro.quorum.group:QuorumGroup.recover_member: return":
            "tests/quorum/test_group.py::"
            "test_a_fault_a_member_is_already_in_changes_nothing",
        "repro.quorum.group:QuorumGroup.repair_pass: break":
            "tests/quorum/test_group.py::"
            "test_a_single_replica_group_has_nothing_to_repair",
        "repro.quorum.group:QuorumGroup.write: remote_copies += 1":
            "tests/quorum/test_group.py::"
            "test_sloppy_group_serves_through_crashes_with_hints",
        "repro.quorum.merkle:diff_leaves: continue":
            "tests/quorum/test_store_merkle.py::"
            "test_differing_keys_identical_across_fastpath",
        "repro.replication.active:coalesce_writes: continue":
            "tests/replication/test_active.py::"
            "TestCoalesceWrites::test_zero_length_extents_dropped",
        "repro.replication.writethrough:WriteThroughReplica.twin_region: "
        "region = self.backup_rio.get_region(name)":
            "tests/replication/test_writethrough.py::"
            "test_twin_region_reuses_existing",
        "repro.san.memory_channel:TransmitMapping._doubled_store: "
        "self.write(offset, self._source[offset : offset + length],":
            "tests/properties/test_word_lane_properties.py::"
            "test_each_case_takes_the_lane_it_names[observed-remote]",
        "repro.san.memory_channel:TransmitMapping._doubled_words: "
        "return False":
            "tests/properties/test_word_lane_properties.py::"
            "test_each_case_takes_the_lane_it_names[observed-remote]",
        "repro.san.memory_channel:TransmitMapping.write: return":
            "tests/san/test_memory_channel.py::"
            "test_an_all_empty_run_issues_nothing_anywhere",
        "repro.san.memory_channel:TransmitMapping.write_run: for data, "
        "category in parts":
            "tests/san/test_memory_channel.py::"
            "test_an_all_empty_run_issues_nothing_anywhere",
        "repro.san.memory_channel:TransmitMapping.write_run: return":
            "tests/san/test_memory_channel.py::"
            "test_write_run_through_a_mapping_matches_the_per_part_loop",
        "repro.san.packets:PacketTrace.effective_bandwidth_mb_per_s: return "
        "0.0":
            "tests/san/test_packets.py::test_effective_bandwidth_empty_trace",
        "repro.shard.router:Router._attempt: record.dropped = True":
            "tests/obs/test_series.py::"
            "test_scope_probes_equal_the_brute_force_scan[1]",
        "repro.vista.api:TransactionEngine.create: config = EngineConfig()":
            "tests/vista/test_factory.py::test_default_config_used_when_none",
        "repro.vista.stats:AccessProfile.touch_random: return":
            "tests/vista/test_stats.py::"
            "TestAccessProfile::test_zero_length_touches_ignored",
        "repro.vista.stats:AccessProfile.touch_sequential: return":
            "tests/vista/test_stats.py::"
            "TestAccessProfile::test_zero_length_touches_ignored",
        "repro.vista.v3_inline_log:InlineLogEngine._parse_log: break":
            "tests/cluster/test_cluster.py::"
            "test_crash_detection_and_takeover[passive-v3]",
    },
}


#: Why a defaulted dataclass field keeps a default no production run
#: changes -> ``{"module:Class.field": why}``.
ALLOWED_FIELDS = {
    _BENCHMARK: {
        "repro.vista.stats:AccessProfile.line_size":
            "the txn-* ledger goldens hash dataclasses.asdict(profile)",
    },
    _CLI: {
        "repro.experiments.common:ExperimentSettings.seed":
            "repro-experiments --seed (and the ledger's seed 7)",
    },
    _TEST: {
        "repro.experiments.common:ExperimentSettings.nominal_db_bytes":
            "tests/experiments/test_cell_identity.py::"
            "test_read_at_another_size_equals_a_run_driven_at_it",
        "repro.shard.cluster:PartitionPlan.symmetric":
            "tests/cluster/test_partition_plans.py::"
            "test_partition_without_heal_is_permanent",
    },
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_TRIES = tuple(getattr(ast, name) for name in ("Try", "TryStar")
               if hasattr(ast, name))
_WITHS = (ast.With, ast.AsyncWith)
_PROBE, _LIVE = "__census_probe__", "__census_live__"
#: A block's key keeps at most this much of its first statement, cut
#: at a space.
_KEY_CHARS = 64
_DEFAULT, _DATACLASS = "__census_default__", "__census_dataclass__"


def _is_dunder(qualname: str) -> bool:
    name = qualname.replace(":", ".").rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def _is_default(value, default) -> bool:
    """Whether a bound value is the parameter's default: the default
    object itself, or an equal value of the same type."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:  # e.g. an array compares elementwise
        return False


def _is_docstring(statement: ast.stmt) -> bool:
    return (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str))


def _is_inert(body: list) -> bool:
    """Only a docstring, ``...`` or ``pass``."""
    return all(
        isinstance(statement, ast.Pass) or _is_docstring(statement)
        or (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis)
        for statement in body)


def _has_no_code(node: ast.AST) -> bool:
    """Only a docstring, ``...`` or ``pass``; or an abstract method."""
    return _is_inert(node.body) or any(
        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
        for d in node.decorator_list)


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)`` and given no
    ``__init__`` of its own (which the parameter pass then covers)."""
    return any(
        getattr(getattr(d, "func", d), "id",
                getattr(getattr(d, "func", d), "attr", None)) == "dataclass"
        for d in node.decorator_list) and not any(
        isinstance(child, _DEFS) and child.name == "__init__"
        for child in node.body)


def _key_text(source: str, statement: ast.stmt) -> str:
    """``statement`` as written (a compound statement's header only),
    whitespace collapsed, cut at a space to at most :data:`_KEY_CHARS`
    characters: the same on every Python version, as ``ast.unparse``'s
    spelling is not."""
    if isinstance(statement, _DEFS):
        return f"def {statement.name}"
    if isinstance(statement, ast.ClassDef):
        return f"class {statement.name}"
    end = statement
    if isinstance(statement, (ast.If, ast.While)):
        end = statement.test
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        end = statement.iter
    elif isinstance(statement, _WITHS):
        end = statement.items[-1].optional_vars \
            or statement.items[-1].context_expr
    elif isinstance(statement, _TRIES):
        return "try:"
    span = types.SimpleNamespace(
        lineno=statement.lineno, col_offset=statement.col_offset,
        end_lineno=end.end_lineno, end_col_offset=end.end_col_offset)
    text = re.sub(r"([(\[{]) | ([)\]}])", r"\1\2", " ".join(
        ast.get_source_segment(source, span).split()))
    if len(text) > _KEY_CHARS:
        text = text[:_KEY_CHARS].rpartition(" ")[0]
    return text


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def attribute_stores(trees) -> set:
    """Every attribute name stored anywhere in ``trees``: ``x.name =``,
    ``x.name +=``, and ``setattr`` / ``object.__setattr__`` with a
    constant name."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) \
                    in ("setattr", "__setattr__") and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                names.add(node.args[1].value)
    return names


class Census:
    """What ran while modules compiled by :meth:`execute` (or imported
    under :meth:`recording`) executed. Every def body and branch body
    carries a probe ``k``; ``blocks[k]`` describes it, and ``hits``
    holds every probe that ran."""

    def __init__(self, stores=frozenset()) -> None:
        #: Attribute names stored after construction (a mutable
        #: dataclass field of such a name is state, not a knob).
        self.stores = stores
        #: probe -> ``(enclosing probe or None, qualname, first
        #: statement, exempt)``; a tracked def's body has no enclosing
        #: probe (the def pass judges it).
        self.blocks: list = []
        #: probe -> still armed; the modules' ``__census_live__``.
        self.live: list = []
        self.hits: set = set()
        #: probe of a tracked def's body -> the def's qualname.
        self.defs: dict = {}
        #: ``(qualname, parameter) -> varied`` for every defaulted
        #: parameter of a tracked def that ran.
        self.varied: dict = {}
        #: ``"module:Class.field" -> varied`` for every watched field
        #: of a dataclass that was constructed.
        self.fields: dict = {}
        #: probe -> ``{parameter: default}``, recorded when the def
        #: was made, and the parameters still to vary.
        self._defaults: dict = {}
        self._watch: dict = {}
        self._names = {_PROBE: self.probe, _LIVE: self.live,
                       _DEFAULT: self.default, _DATACLASS: self.dataclass}

    # -- compiling ---------------------------------------------------------

    def execute(self, module: types.ModuleType, source: str,
                path: str) -> None:
        """Run ``source`` as ``module`` with every probe in place."""
        tree = self.instrument(source, path, module.__name__)
        vars(module).update(self._names)
        exec(compile(tree, path, "exec", dont_inherit=True), vars(module))

    def instrument(self, source: str, path: str, module: str) -> ast.Module:
        """Register every def and block of ``source`` and return its
        tree with the probes in place."""
        self._source = source
        tree = ast.parse(source, path)
        tree.body = self._scope(tree.body, f"{module}:")
        return ast.fix_missing_locations(tree)

    def _scope(self, body: list, scope: str) -> list:
        """The defs the name guard tracks: module-level and class-body
        defs, also under a module-level ``if`` / ``with`` / ``try``
        (not in an ``except`` clause)."""
        out = []
        for node in body:
            out.append(node)
            if isinstance(node, ast.ClassDef):
                node.body = self._scope(node.body, f"{scope}{node.name}.")
                if _is_dataclass(node):
                    out.append(ast.copy_location(ast.Expr(_call(
                        _DATACLASS, ast.Name(node.name, ast.Load()))), node))
            elif isinstance(node, _DEFS):
                if not _has_no_code(node):
                    self._def(node, scope + node.name, None)
            else:
                for field in ("body", "orelse", "finalbody"):
                    if isinstance(getattr(node, field, None), list):
                        setattr(node, field,
                                self._scope(getattr(node, field), scope))
        return out

    def _new(self, enclosing, qualname: str, body: list) -> int:
        probe = len(self.blocks)
        first = _key_text(self._source, body[0])
        exempt = _is_inert(body) or isinstance(body[0], ast.Raise)
        self.blocks.append((enclosing, qualname, first, exempt))
        self.live.append(True)
        return probe

    def _probe(self, probe: int, body: list, values=None) -> list:
        args = [ast.Constant(probe)] + ([values] if values else [])
        statement = ast.If(
            ast.Subscript(ast.Name(_LIVE, ast.Load()), ast.Constant(probe),
                          ast.Load()),
            [ast.Expr(_call(_PROBE, *args))], [])
        return [ast.copy_location(statement, body[0])] + body

    def _def(self, node, qualname: str, enclosing) -> None:
        """Probe a def's body: a tracked def (``enclosing`` None) also
        records its defaults and checks its parameters on entry."""
        body = node.body
        head = body[:1] if _is_docstring(body[0]) else []
        body = body[len(head):]
        probe = self._new(enclosing, qualname, body)
        values = None
        if enclosing is None:
            self.defs[probe] = qualname
            values = self._record_defaults(node.args, probe)
        self._blocks(body, qualname, probe)
        node.body = head + self._probe(probe, body, values)

    def _record_defaults(self, args: ast.arguments, probe: int):
        """Wrap each default so the def records it when it is made;
        returns the tuple of defaulted parameters its probe passes."""
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(arg, default) for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults) if default]
        if not pairs:
            return None
        for arg, default in pairs:
            wrapped = _call(_DEFAULT, ast.Constant(probe),
                            ast.Constant(arg.arg), default)
            if default in args.defaults:
                args.defaults[args.defaults.index(default)] = wrapped
            else:
                args.kw_defaults[args.kw_defaults.index(default)] = wrapped
        self._defaults[probe] = {}
        return ast.Tuple([ast.Name(arg.arg, ast.Load())
                          for arg, _ in pairs], ast.Load())

    def _block(self, body: list, qualname: str, enclosing: int) -> list:
        probe = self._new(enclosing, qualname, body)
        self._blocks(body, qualname, probe)
        return self._probe(probe, body)

    def _blocks(self, body: list, qualname: str, enclosing: int) -> None:
        """Probe every branch body among ``body``'s statements."""
        for node in body:
            if isinstance(node, _DEFS):
                if not _has_no_code(node):
                    self._def(node, f"{qualname}.<locals>.{node.name}",
                              enclosing)
            elif isinstance(node, ast.ClassDef):
                self._blocks(node.body, f"{qualname}.<locals>.{node.name}",
                             enclosing)
            elif isinstance(node, ast.If):
                node.body = self._block(node.body, qualname, enclosing)
                if len(node.orelse) == 1 and isinstance(node.orelse[0],
                                                        ast.If):
                    self._blocks(node.orelse, qualname, enclosing)  # elif
                elif node.orelse:
                    node.orelse = self._block(node.orelse, qualname,
                                              enclosing)
            elif isinstance(node, _LOOPS + _TRIES + _WITHS):
                for field in ("body", "orelse", "finalbody"):
                    if getattr(node, field, None):
                        setattr(node, field, self._block(
                            getattr(node, field), qualname, enclosing))
                for handler in getattr(node, "handlers", ()):
                    handler.body = self._block(handler.body, qualname,
                                               enclosing)
            elif hasattr(ast, "Match") and isinstance(node, ast.Match):
                for case in node.cases:
                    case.body = self._block(case.body, qualname, enclosing)

    # -- what the probes call -----------------------------------------------

    def default(self, probe: int, name: str, value):
        """A def's default, as the def is made."""
        self._defaults[probe][name] = value
        return value

    def probe(self, probe: int, values=()) -> None:
        """A block ran; a tracked def also passes its defaulted
        parameters, and its probe stays armed while one has not yet
        varied."""
        self.hits.add(probe)
        watch = self._watch.get(probe)
        if watch is None:
            if not values:
                self.live[probe] = False
                return
            qualname = self.defs[probe]
            watch = self._watch[probe] = dict(self._defaults[probe])
            for name in watch:
                self.varied.setdefault((qualname, name), False)
        for name, value in zip(self._defaults[probe], values):
            if name in watch and not _is_default(value, watch[name]):
                self.varied[(self.defs[probe], name)] = True
                del watch[name]
        if not watch:
            self.live[probe] = False

    def dataclass(self, cls: type) -> None:
        """Watch a dataclass's defaulted fields that only construction
        can set: wrap its generated ``__init__`` until each has varied."""
        if not cls.__dataclass_params__.init:
            return
        init = cls.__init__
        code = init.__code__
        positional = code.co_varnames[1:code.co_argcount]
        defaults = dict(zip(
            positional[len(positional) - len(init.__defaults__ or ()):],
            init.__defaults__ or ()))
        defaults.update(init.__kwdefaults__ or {})
        frozen = cls.__dataclass_params__.frozen
        watch = {}
        for field in dataclasses.fields(cls):
            if field.name not in defaults or (
                    not frozen and field.name in self.stores):
                continue
            owner = next(klass for klass in cls.__mro__ if field.name
                         in vars(klass).get("__annotations__", ()))
            key = f"{owner.__module__}:{owner.__qualname__}.{field.name}"
            default = field.default
            if field.default_factory is not dataclasses.MISSING:
                default = field.default_factory()
                if not default:  # a fresh empty container: state
                    continue
            watch[field.name] = (key, default)
        if not watch:
            return
        census = self

        @functools.wraps(init)
        def watched(instance, *args, **kwargs):
            bound = dict(zip(positional, args), **kwargs)
            for name, (key, default) in list(watch.items()):
                census.fields.setdefault(key, False)
                if name in bound and not _is_default(bound[name], default):
                    census.fields[key] = True
                    del watch[name]
            if not watch:
                cls.__init__ = init
            init(instance, *args, **kwargs)

        cls.__init__ = watched

    # -- the import hook --------------------------------------------------

    def find_spec(self, fullname, path=None, target=None):
        """``sys.meta_path`` finder: ``repro.*`` loads through
        :meth:`execute`, never from or into a bytecode cache."""
        if fullname.partition(".")[0] != "repro":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and isinstance(
                spec.loader, importlib.machinery.SourceFileLoader):
            spec.loader = _Loader(self, spec.loader.name, spec.loader.path)
        return spec

    @contextlib.contextmanager
    def recording(self):
        if any(name.partition(".")[0] == "repro" for name in sys.modules):
            raise RuntimeError("census: repro was imported before the hook")
        sys.meta_path.insert(0, self)
        try:
            yield
        finally:
            sys.meta_path.remove(self)

    # -- the four passes --------------------------------------------------

    def never_ran(self) -> set:
        """Qualnames of tracked defs (dunders exempt) that never ran."""
        ran = {self.defs[probe] for probe in self.hits if probe in self.defs}
        return {qualname for qualname in self.defs.values()
                if not _is_dunder(qualname)} - ran

    def never_varied(self) -> set:
        return {f"{qualname}({name}=)" for (qualname, name), varied
                in self.varied.items() if not varied}

    def dead_blocks(self, exempt: bool = False) -> set:
        """``"qualname: first statement"`` of every block that never
        ran although its enclosing block did (the exempt ones, or the
        rest)."""
        return {f"{qualname}: {first}"
                for probe, (enclosing, qualname, first, is_exempt)
                in enumerate(self.blocks)
                if enclosing in self.hits and probe not in self.hits
                and is_exempt == exempt}

    def fixed_fields(self) -> set:
        return {key for key, varied in self.fields.items() if not varied}


class _Loader(importlib.machinery.SourceFileLoader):
    def __init__(self, census: Census, fullname: str, path: str) -> None:
        super().__init__(fullname, path)
        self.census = census

    def exec_module(self, module: types.ModuleType) -> None:
        self.census.execute(module, self.get_data(self.path).decode(),
                            self.path)


@contextlib.contextmanager
def _quiet(argv):
    """Run with ``sys.argv`` = argv and stdout discarded."""
    saved = sys.argv
    sys.argv = [str(arg) for arg in argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            yield
    finally:
        sys.argv = saved


def _check(status, what) -> None:
    if status not in (0, None):
        raise SystemExit(f"census: {what} exited {status}")


def _grid() -> None:
    from repro.experiments import runner

    with _quiet(["repro-experiments"]):
        _check(runner.main(["--transactions", str(GRID_TRANSACTIONS)]),
               "the grid")
        _check(runner.main(["--transactions", "20", "--jobs", "2", "table3"]),
               "the --jobs 2 grid")


def _examples(out: Path) -> list:
    """Run every example; returns the two traces the examples wrote."""
    shard_trace = out / "sharded_bank.jsonl"
    quorum_trace = out / "quorum_kv.jsonl"
    runs = [[path] for path in sorted(EXAMPLES.glob("*.py"))]
    runs.append([EXAMPLES / "sharded_bank.py", "--trace", shard_trace,
                 "--chrome-trace", out / "sharded_bank.chrome.json",
                 "--metrics-json", out / "sharded_bank.metrics.json"])
    runs.append([EXAMPLES / "quorum_kv.py", "--trace", quorum_trace])
    for argv in runs:
        with _quiet(argv):
            try:
                runpy.run_path(str(argv[0]), run_name="__main__")
            except SystemExit as stop:
                _check(stop.code, argv[0].name)
    return [shard_trace, quorum_trace]


def _timelines(out: Path) -> list:
    from repro.experiments.extension_quorum import quorum_timeline
    from repro.experiments.extension_sharding import failover_timeline

    shard_trace = out / "failover_timeline.jsonl"
    quorum_trace = out / "quorum_timeline.jsonl"
    failover_timeline(trace_path=shard_trace)
    quorum_timeline(trace_path=quorum_trace)
    return [shard_trace, quorum_trace]


def _reports(traces: list, out: Path) -> None:
    from repro.obs.report import main as report

    for index, trace in enumerate(traces):
        other = traces[(index + 1) % len(traces)]
        runs = (
            [trace, "--series",
             "--chrome-trace", out / f"{trace.stem}.chrome.json",
             "--audit", "--slo", "--spans", "--recovery", "--alerts"],
            [trace, "--series", "--audit", "--slo", "--scope", "shard",
             "--scope", "group", "--spans", "--recovery", "--alerts",
             "--format", "json", "--output", out / f"{trace.stem}.report.json"],
            [trace, "--diff", trace],
            [trace, "--diff", trace, "--format", "json"],
            [trace, "--diff", other],  # exits 1: the traces differ
        )
        for argv in runs:
            with _quiet(["report"]):
                try:
                    report([str(arg) for arg in argv])
                except SystemExit as stop:
                    _check(stop.code, f"report {argv[1:]}")


def _ledger() -> None:
    """One traced pass of each ledger workload at its self-test size,
    then its probes, as ``child.py --trace 1`` drives one."""
    sys.path.insert(0, str(LEDGER))
    try:
        import spec
        import workloads
        from child import _digest
        from tracer import Tracer
    finally:
        sys.path.remove(str(LEDGER))

    seed = 42
    for name in spec.WORKLOADS:
        tracer = Tracer(f"census-{name}")
        workload = workloads.WORKLOADS[name]()
        checks = workloads.Checks()
        with _quiet([name]):
            workload.setup(seed, spec.sizes_of(name, tiny=True), tracer)
            with workload.instruments(tracer), \
                    workloads.time_simulator() as sim_timer:
                workload.measure(tracer, checks)
            _digest(workload.simulated())
            workloads.sim_metrics(sim_timer)
            workload.layers(tracer)
            for probe in workload.probes:
                probe(seed)
        if checks.failures:
            raise SystemExit(f"census: ledger {name} failed {checks.failures}")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _print_table(title: str, table: dict) -> None:
    print(f"  {title}:")
    for reason, names in table.items():
        print(f"    {reason} ({len(names)}):")
        for name in names:
            detail = names[name] if isinstance(names, dict) else ""
            print(f"      {name}" + (f" -- {detail}" if detail else ""))


def main() -> int:
    started = time.time()
    sys.dont_write_bytecode = True
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    census = Census(attribute_stores(
        ast.parse(source, str(path)) for path, source in sources.items()))
    with tempfile.TemporaryDirectory() as scratch, census.recording():
        out = Path(scratch)
        _grid()
        traces = _examples(out) + _timelines(out)
        _reports(traces, out)
        _ledger()
    loaded = {Path(module.__file__).resolve()
              for module in list(sys.modules.values())
              if isinstance(getattr(module, "__loader__", None), _Loader)}
    for path, source in sources.items():  # never imported: nothing ran
        if path not in loaded:
            census.instrument(source, str(path), _module_name(path))

    passes = (
        ("defs under src/ that no production run executes",
         ALLOWED, census.never_ran()),
        ("defaulted parameters that no production run sets to anything "
         "but the default", ALLOWED_PARAMETERS, census.never_varied()),
        ("blocks that never run inside a def that runs",
         ALLOWED_BLOCKS, census.dead_blocks()),
        ("defaulted dataclass fields nothing assigns after construction "
         "and no production run constructs with anything but the default",
         ALLOWED_FIELDS, census.fixed_fields()),
    )
    tracked = len(census.defs)
    checked = sum(1 for enclosing, *_ in census.blocks
                  if enclosing in census.hits)
    print(f"census: {tracked} tracked defs, {len(passes[0][2])} never ran "
          f"({len(passes[0][2] & _names(ALLOWED))} allowed); "
          f"{len(census.varied)} defaulted parameters of defs that ran, "
          f"{len(passes[1][2])} never varied; {checked} blocks inside "
          f"blocks that ran, {len(passes[2][2])} never ran (and "
          f"{len(census.dead_blocks(exempt=True))} exempt raise-first or "
          f"inert ones); {len(census.fields)} watched dataclass fields, "
          f"{len(passes[3][2])} never varied; wall time "
          f"{time.time() - started:.0f} s")
    failed = False
    for (title, table, found), what in zip(
            passes, ("defs", "parameters", "blocks", "fields")):
        _print_table(f"{what} allowed", table)
        unexplained, stale, reasons = judge(found, table)
        failed = failed or bool(unexplained or stale or reasons)
        for reason in reasons:
            print(f"{what}: {reason!r} is not one of the reasons")
        if unexplained:
            print(f"{title} (delete or make constant each one, or "
                  f"allow-list it with a reason):\n  "
                  + "\n  ".join(unexplained))
        if stale:
            print(f"allow-listed {what} that are gone or no longer found "
                  f"(drop each entry):\n  " + "\n  ".join(stale))
    return 1 if failed else 0


def _names(table: dict) -> set:
    return {name for names in table.values() for name in names}


def judge(found: set, table: dict) -> tuple:
    """What one pass fails on: the names ``found`` that ``table`` does
    not hold, the entries of ``table`` no longer found (stale), and
    any reason of ``table`` that is not one of :data:`REASONS`."""
    allowed = _names(table)
    return (sorted(found - allowed), sorted(allowed - found),
            [reason for reason in table if reason not in REASONS])


if __name__ == "__main__":
    sys.exit(main())
