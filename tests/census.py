"""Call census: every def under ``src/`` that a production run
executes, and every defaulted parameter such a run turns.

``tests/test_no_dead_surface.py`` matches uses by bare name, so a
collision keeps a def alive there (``rio.reboot()`` once kept a
``Node.reboot`` alive), and it sees no parameters at all. This script
measures instead: under one trace hook it runs the production entry
points below and fails on any tracked def whose code never ran, and
on any defaulted parameter of a def that ran (a dunder's too, so
constructors count) that no call bound to anything but its default.

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

A parameter *varies* when some call binds it to a value that is not
its default: neither the default object itself nor an equal value of
the same type, so passing the default explicitly does not count, nor
does ``None`` to a ``None`` default. A parameter that never varies
becomes a constant unless :data:`ALLOWED_PARAMETERS` keeps it for one
of its four reasons; the census also fails when an entry is gone or
starts to vary. The hook is installed before any ``repro`` import, so
defs called at import time count too.

Run it from the repository root (about two minutes on two cores)::

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import ast
import contextlib
import gc
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
LEDGER = ROOT / "benchmarks" / "ledger"

#: The full grid's size; both allow-lists were measured at it (the
#: redo-ring wrap and the SMP link's tie-break stay unreached there).
GRID_TRANSACTIONS = 1000

#: Why a def never runs in the census -> the defs it covers.
ALLOWED = {
    "RVM abort and local-recovery paths the benchmarks never take "
    "(safety code)": (
        "repro.replication.active:ActiveReplicatedSystem.abort_transaction",
        "repro.replication.passive:PassiveReplicatedSystem.abort_transaction",
        "repro.vista.v1_mirror_copy:MirrorCopyEngine._on_recover",
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
    "stands in for the 1-safe window until ROADMAP 1(a)": (
        "repro.replication.active:ActiveReplicatedSystem."
        "commit_transaction_losing_publish",
    ),
}

#: Why a defaulted parameter of a def that runs keeps a default no
#: production run changes -> ``{parameter: where it is needed}``. Only
#: these four reasons keep such a knob; any other becomes a constant.
ALLOWED_PARAMETERS = {
    "a frozen benchmark passes it (benchmarks/ledger/ may not change, "
    "nor the committed benchmarks/results/ renderings)": {
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
    "a documented CLI flag reaches it": {
        "repro.obs.report:analyze_timeline(window_us=)":
            "python -m repro.obs.report --window-us",
        "repro.experiments.extension_quorum:availability_comparison("
        "seed=)":
            "repro-experiments --seed, through the quorum experiment",
    },
    "it switches a check on": {
        "repro.obs.audit:audit_events(max_lag_bytes=)":
            "a hard bound on the redo ring's apply lag",
        "repro.obs.audit:TraceAuditor.__init__(max_lag_bytes=)":
            "a hard bound on the redo ring's apply lag",
    },
    "a named tier-1 test needs a value the production default makes "
    "infeasible": {
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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_GENERATOR_FLAGS = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                    | inspect.CO_ASYNC_GENERATOR)


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
    tracked def under ``src/``, and for every dunder with code (whose
    defaulted parameters are watched too; a decorated def's code starts
    at its first decorator)."""
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                elif isinstance(child, _DEFS):
                    if not _has_no_code(child):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        defs[(str(path), first)] = \
                            f"{module}:{scope}{child.name}"
                elif not isinstance(child, (ast.expr, ast.ExceptHandler)):
                    visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return defs


class Census:
    """What ran while :meth:`recording`: one trace hook
    (``sys.settrace`` on the calling thread, ``threading.settrace`` on
    any thread started meanwhile) sees every call. For a tracked def
    it records that the def ran and, for each of its defaulted
    parameters, whether a call ever bound it to a value other than
    its default."""

    def __init__(self, tracked: dict) -> None:
        self.tracked = tracked
        self.ran: set = set()
        #: ``(qualname, parameter) -> varied`` for every defaulted
        #: parameter of a tracked def that ran.
        self.varied: dict = {}
        #: code -> ``(qualname, {parameter: default})`` still to vary,
        #: or None once nothing is left to watch.
        self._watch: dict = {}
        #: generator code -> ``f_lasti`` of a fresh call (a resume is
        #: a ``call`` event too, with the body's rebinding in locals).
        self._starts: dict = {}

    def _first_call(self, frame):
        code = frame.f_code
        qualname = self.tracked.get(
            (os.path.realpath(code.co_filename), code.co_firstlineno))
        if qualname is None:
            return None
        self.ran.add(qualname)
        function = next(
            referrer for referrer in gc.get_referrers(code)
            if isinstance(referrer, types.FunctionType)
            and referrer.__code__ is code)
        positional = code.co_varnames[:code.co_argcount]
        defaults = function.__defaults__ or ()
        watched = dict(zip(positional[len(positional) - len(defaults):],
                           defaults))
        watched.update(function.__kwdefaults__ or {})
        for name in watched:
            self.varied[(qualname, name)] = False
        if code.co_flags & _GENERATOR_FLAGS:
            self._starts[code] = frame.f_lasti
        return (qualname, watched) if watched else None

    def _hook(self, frame, event, arg):
        code = frame.f_code
        try:
            watch = self._watch[code]
        except KeyError:
            watch = self._watch[code] = self._first_call(frame)
        if watch is None or self._starts.get(code, frame.f_lasti) \
                != frame.f_lasti:
            return None
        qualname, watched = watch
        bound = frame.f_locals
        for name, default in list(watched.items()):
            if not _is_default(bound[name], default):
                self.varied[(qualname, name)] = True
                del watched[name]
        if not watched:
            self._watch[code] = None
        return None

    @contextlib.contextmanager
    def recording(self):
        previous = sys.gettrace()
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        try:
            yield
        finally:
            sys.settrace(previous)
            threading.settrace(None)


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
    tracked = tracked_defs()
    census = Census(tracked)
    with tempfile.TemporaryDirectory() as scratch, census.recording():
        out = Path(scratch)
        _grid()
        traces = _examples(out) + _timelines(out)
        _reports(traces, out)
        _ledger()

    never = {qualname for qualname in tracked.values()
             if not _is_dunder(qualname)} - census.ran
    allowed = {name for names in ALLOWED.values() for name in names}
    unexplained = sorted(never - allowed)
    stale = sorted(allowed - never)
    fixed = {f"{qualname}({name}=)" for (qualname, name), varied
             in census.varied.items() if not varied}
    kept = {name for names in ALLOWED_PARAMETERS.values() for name in names}
    unexplained_parameters = sorted(fixed - kept)
    stale_parameters = sorted(kept - fixed)
    watched_defs = {qualname for qualname, _ in census.varied}
    print(f"census: {len(tracked)} tracked defs, {len(never)} never ran "
          f"({len(allowed)} allowed); {len(census.varied)} defaulted "
          f"parameters on {len(watched_defs)} defs that ran, {len(fixed)} "
          f"never varied ({len(kept)} allowed); wall time "
          f"{time.time() - started:.0f} s")
    for title, table in (("defs that never run", ALLOWED),
                         ("parameters that never vary", ALLOWED_PARAMETERS)):
        print(f"  {title}:")
        for reason, names in table.items():
            print(f"    {reason} ({len(names)}):")
            for name in names:
                detail = names[name] if isinstance(names, dict) else ""
                print(f"      {name}" + (f" -- {detail}" if detail else ""))
    if unexplained:
        print("defs under src/ that no production run executes (delete "
              "them, or allow-list one with a reason):\n  "
              + "\n  ".join(unexplained))
    if stale:
        print("allow-listed defs that are gone or now run (drop them from "
              "ALLOWED):\n  " + "\n  ".join(stale))
    if unexplained_parameters:
        print("defaulted parameters that no production run sets to "
              "anything but the default (make each a constant, or "
              "allow-list one with a reason):\n  "
              + "\n  ".join(unexplained_parameters))
    if stale_parameters:
        print("allow-listed parameters that are gone or now vary (drop "
              "them from ALLOWED_PARAMETERS):\n  "
              + "\n  ".join(stale_parameters))
    return 1 if (unexplained or stale or unexplained_parameters
                 or stale_parameters) else 0


if __name__ == "__main__":
    sys.exit(main())
