"""Call census: every def under ``src/`` that a production run executes.

``tests/test_no_dead_surface.py`` matches uses by bare name, so a
collision keeps a def alive there (``rio.reboot()`` once kept a
``Node.reboot`` alive). This script measures instead: under a profile
hook it runs the production entry points below and fails on any
tracked def whose code never ran.

* ``repro-experiments --transactions 1000`` over the whole grid,
  sequentially, and a small ``--jobs 2`` grid for the pool path;
* every ``examples/*.py`` as ``__main__``, plus ``sharded_bank.py``
  with every output flag and ``quorum_kv.py --trace``;
* ``failover_timeline(trace_path=)`` and ``quorum_timeline(trace_path=)``;
* ``python -m repro.obs.report`` over those four traces and over their
  series files, with every flag, and ``--diff`` against itself and
  against another trace;
* one traced pass of each of the six ledger workloads at its self-test
  size, with its kernel probes.

A tracked def is what the name guard tracks: a module-level function,
or a method or property in a class body, dunders exempt. A body that
is only a docstring, ``...`` or ``pass``, an ``@abstractmethod`` and a
def in an ``except`` clause (an interpreter-version fallback) have no
code to run here and are exempt too. A def that legitimately never
runs needs an :data:`ALLOWED` entry; the census also fails when an
entry is gone or starts to run.

Run it from the repository root (about a minute on two cores)::

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
LEDGER = ROOT / "benchmarks" / "ledger"

#: The full grid's size; :data:`ALLOWED` was measured at it (the
#: redo-ring wrap and the SMP link's tie-break stay unreached there).
GRID_TRANSACTIONS = 1000

#: Why a def never runs in the census -> the defs it covers.
ALLOWED = {
    "RVM abort and local-recovery paths the benchmarks never take "
    "(safety code)": (
        "repro.replication.active:ActiveReplicatedSystem.abort_transaction",
        "repro.replication.passive:PassiveReplicatedSystem.abort_transaction",
        "repro.vista.v0_vista:VistaEngine._on_abort",
        "repro.vista.v1_mirror_copy:MirrorCopyEngine._on_abort",
        "repro.vista.v1_mirror_copy:MirrorCopyEngine._on_recover",
        "repro.vista.v1_mirror_copy:MirrorCopyEngine._restore_ranges",
    ),
    "redo-ring wrap: runs only past 1 MB of redo (the full-size "
    "txn-active ledger run reaches it, the self-test size does not)": (
        "repro.replication.redo_log:_split_run",
        "repro.replication.redo_log:RedoLogApplier._frame_end",
    ),
    "error and violation paths": (
        "repro.san.memory_channel:MemoryChannelInterface._refuse",
        "repro.obs.audit:TraceAuditor._flag",
        "repro.obs.audit:Violation.to_dict",
        "repro.obs.diff:Divergence.to_dict",
    ),
    "NullObserver mirrors Observer; every call site checks enabled "
    "first": (
        "repro.obs.observer:NullObserver.linked_span",
        "repro.obs.observer:NullObserver.metric_name",
        "repro.obs.observer:NullObserver.new_trace_id",
        "repro.obs.observer:NullObserver.now",
    ),
    "the queue protocol both event queues share": (
        "repro.sim.events:EventQueue.distinct_times",
        "repro.sim.events:BucketedEventQueue.peek_time",
    ),
    "runs only in the --jobs pool's worker processes": (
        "repro.experiments.cells:compute_cell",
    ),
    "the SMP link's equal-instant tie-break, exact to the polling "
    "oracle; the grid's packet mixes never tie": (
        "repro.perf.smp_sim:_grid",
    ),
    "ShardedWorkload's Order-Entry partitioning; no experiment shards "
    "Order-Entry": (
        "repro.shard.partitioner:Partitioner.for_order_entry",
    ),
    "stands in for the 1-safe window until ROADMAP 1(a)": (
        "repro.replication.active:ActiveReplicatedSystem."
        "commit_transaction_losing_publish",
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _has_no_code(node: ast.AST) -> bool:
    """Only a docstring, ``...`` or ``pass``; or an abstract method."""
    if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
           for d in node.decorator_list):
        return True
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and (isinstance(statement.value.value, str)
                 or statement.value.value is Ellipsis))
        for statement in node.body)


def tracked_defs() -> dict:
    """``(file, first line of its code object) -> qualname`` for every
    tracked def under ``src/`` (a decorated def's code starts at its
    first decorator)."""
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                elif isinstance(child, _DEFS):
                    if not _is_dunder(child.name) and not _has_no_code(child):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        defs[(str(path), first)] = \
                            f"{module}:{scope}{child.name}"
                elif not isinstance(child, (ast.expr, ast.ExceptHandler)):
                    visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return defs


class Census:
    """Every code object called while :meth:`recording`: cProfile (the
    C profile hook) on the calling thread, a Python hook on any thread
    started meanwhile."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.thread_codes: set = set()

    def _thread_hook(self, frame, event, arg):
        self.thread_codes.add(frame.f_code)

    @contextlib.contextmanager
    def recording(self):
        threading.setprofile(self._thread_hook)
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            threading.setprofile(None)

    def ran(self) -> set:
        """``(file, first line)`` of every Python code object called."""
        codes = {entry.code for entry in self.profile.getstats()}
        codes |= self.thread_codes
        return {(os.path.realpath(code.co_filename), code.co_firstlineno)
                for code in codes if not isinstance(code, str)}


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
        series = out / f"{trace.stem}.series.jsonl"
        runs = (
            [trace, "--series", "--series-out", series,
             "--chrome-trace", out / f"{trace.stem}.chrome.json",
             "--audit", "--slo", "--spans", "--recovery", "--alerts"],
            [trace, "--audit", "--slo", "--scope", "shard", "--scope",
             "group", "--spans", "--recovery", "--alerts", "--format",
             "json", "--output", out / f"{trace.stem}.report.json"],
            [trace, "--diff", trace],
            [trace, "--diff", other],  # exits 1: the traces differ
            [series, "--series"],
            [series, "--series", "--format", "json", "--diff", series],
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


def main() -> int:
    started = time.time()
    census = Census()
    with tempfile.TemporaryDirectory() as scratch, census.recording():
        out = Path(scratch)
        _grid()
        traces = _examples(out) + _timelines(out)
        _reports(traces, out)
        _ledger()
    ran = census.ran()

    tracked = tracked_defs()
    never = {qualname for key, qualname in tracked.items() if key not in ran}
    allowed = {name for names in ALLOWED.values() for name in names}
    unexplained = sorted(never - allowed)
    stale = sorted(allowed - never)
    print(f"census: {len(tracked)} tracked defs, {len(never)} never ran "
          f"({len(allowed)} allowed), {time.time() - started:.0f} s")
    for reason, names in ALLOWED.items():
        print(f"  {reason} ({len(names)}):")
        for name in names:
            print(f"    {name}")
    if unexplained:
        print("defs under src/ that no production run executes (delete "
              "them, or allow-list one with a reason):\n  "
              + "\n  ".join(unexplained))
    if stale:
        print("allow-listed defs that are gone or now run (drop them from "
              "ALLOWED):\n  " + "\n  ".join(stale))
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
