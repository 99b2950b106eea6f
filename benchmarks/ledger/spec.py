"""The ledger's definition: workloads, frozen sizes, metrics.

Single source of truth. ``run.py spec`` renders the root
``BENCHMARK.json`` from this module, ``child.py`` sizes its work from
it, ``selftest.py`` holds both to it. Pure data and stdlib only, so
the parent process and the self-test can import it without ``repro``.

Host time vs simulated time: every ``*_s``/``*_per_s``/``*_share``
metric is **host** time (what a user of the simulator waits for);
counts, ``*_err_pct`` and ``cluster.sim_downtime_us`` are
**simulated** statistics and must repeat exactly for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

SCHEMA = "repro-ledger-v1"

#: How long one driver run measures: every workload's fixed-size pass
#: is sized to about this on the 2-core reference container (the grid,
#: the ROADMAP's top line, is one ~20 s pass and cannot shrink).
RUN_SECONDS = 10

#: Set-up samples per run (fresh processes; one also measures).
SETUP_SAMPLES = 3

#: The ``src/repro`` packages, one layer each; anything else sampled
#: on the main thread is ``other``.
LAYERS = (
    "sim", "memory", "hardware", "san", "vista", "replication",
    "fastpath", "workloads", "perf", "cluster", "shard", "quorum",
    "obs", "experiments",
)

EXPERIMENT_KEYS = (
    "figure1", "table1", "table3", "table4", "table6", "table8",
    "figures2-3", "ablations", "recovery", "smp-validation",
    "sensitivity", "sharding", "quorum",
)

#: Distinct driven cells of the full ``--transactions 1000`` grid
#: (``experiments.cells.plan_for`` at the commit that defined the
#: ledger). Frozen: ``units_per_s`` divides a fixed *input* count.
GRID_CELLS = 35


class Workload(NamedTuple):
    why: str
    unit: str  # what ``units_per_s`` counts
    sizes: Dict[str, object]  # frozen full size
    tiny: Dict[str, object]  # self-test size


def _units_txn(cells: int):
    return lambda s: cells * s["txns_per_cell"]


WORKLOADS: Dict[str, Workload] = {
    "txn-standalone": Workload(
        why="engines V0-V3 x both paper workloads with no replication: "
        "vista+memory+workloads do all the work, so it is the bypass "
        "workload for every replication/SAN optimisation",
        unit="driven transactions",
        sizes={"txns_per_cell": 6000},
        tiny={"txns_per_cell": 40},
    ),
    "txn-passive": Workload(
        why="passive write-doubling V0-V3 then crash+failover+verify: "
        "scattered small I/O-space stores, so hardware (write buffers), "
        "san (packet trace) and the replay cache dominate",
        unit="driven transactions",
        sizes={"txns_per_cell": 2500},
        tiny={"txns_per_cell": 40},
    ),
    "txn-active": Workload(
        why="active redo ring, 1-safe and 2-safe, then crash+failover+"
        "verify: the same san/replication layers driven by contiguous "
        "ring writes, backup apply and consumer-pointer acks",
        unit="driven transactions",
        sizes={"txns_per_cell": 12000},
        tiny={"txns_per_cell": 40},
    ),
    "smp-des": Workload(
        why="the 24 discrete-event SMP points of smp-validation: sim "
        "(generator processes on a poll-dominated heap) is all the "
        "work and the engines none; half of today's grid",
        unit="simulated stream-us",
        sizes={"transactions": 1000, "duration_us": 20_000.0},
        tiny={"transactions": 60, "duration_us": 1_000.0},
    ),
    "failover-timeline": Workload(
        why="8-shard double-crash failover plus a quorum-loss timeline "
        "with observer attached, then audit+SLO+recovery decomposition: "
        "sim on heartbeat timers with cluster, shard, quorum and obs "
        "on the clock",
        unit="client operations submitted",
        sizes={
            "num_shards": 8, "slots": 480, "offered_per_shard": 4,
            "crashes": ((2, 40250.0), (5, 90250.0)),
            "quorum_slots": 1500,
        },
        tiny={
            "num_shards": 8, "slots": 30, "offered_per_shard": 2,
            "crashes": ((2, 5250.0), (5, 9250.0)),
            "quorum_slots": 30,
        },
    ),
    "grid-1000": Workload(
        why="the full experiment grid at 1000 transactions, the "
        "ROADMAP's one top-line number: the only workload with "
        "cross-experiment cell sharing, perf estimators and rendering",
        unit="driven transactions",
        sizes={"transactions": 1000},
        tiny={"transactions": 60, "experiments": ("figure1", "table3", "table6")},
    ),
}

#: Quorum timeline geometry the unit count needs (the experiment
#: module's ``NUM_GROUPS`` x ``OFFERED_PER_GROUP_PER_SLOT``).
_QUORUM_OPS_PER_SLOT = 3 * 2

_UNITS = {
    "txn-standalone": _units_txn(8),
    "txn-passive": _units_txn(8),
    "txn-active": _units_txn(4),
    # 3 configs x 2 workloads x (1+2+3+4) CPUs x duration.
    "smp-des": lambda s: int(6 * 10 * s["duration_us"]),
    "failover-timeline": lambda s: (
        s["num_shards"] * s["slots"] * s["offered_per_shard"]
        + _QUORUM_OPS_PER_SLOT * s["quorum_slots"]
    ),
    "grid-1000": lambda s: GRID_CELLS * s["transactions"],
}


def sizes_of(workload: str, tiny: bool = False) -> Dict[str, object]:
    entry = WORKLOADS[workload]
    return dict(entry.tiny if tiny else entry.sizes)


def units_of(workload: str, tiny: bool = False) -> int:
    """The workload's fixed input unit count (an input count, never an
    internal one such as events, so removing work reads as a gain)."""
    return _UNITS[workload](sizes_of(workload, tiny))


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: The eight end-to-end metrics of the ledger report, same names on
#: every workload, measured with tracing off. Each bound is what the
#: 2-core reference container resolves for that metric under the
#: benchmark driver's protocol (ten runs at ten seeds, spread =
#: quartile distance / median, two such sets minutes apart); the
#: README's "Bounds" section holds the measurements. In short: the
#: host runs pure-Python code at one of two speeds about 20% apart and
#: switches between them on a scale of seconds to minutes, which no
#: 25 s run averages out, so every host-time metric needs the
#: contract's widest bound; peak RSS repeats to under 1% at one seed
#: but the grid's depends on the seed (garbage-collection timing:
#: 242-294 MB, spread up to 12% over ten seeds).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start to measured-phase start: imports, region "
             "allocation, DB population, sync_initial, plan building"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "wall-clock of the measured phase"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "user+sys CPU of the child (and its children) over the "
             "measured phase"),
    EndToEnd("units_per_s", "unit/s", "higher", 0.25,
             "the workload's fixed input unit count / wall_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20,
             "child ru_maxrss at the end of the measured phase"),
    EndToEnd("fail_share", "ratio", "lower", 0.0,
             "failed / attempted correctness operations"),
    EndToEnd("sim_identical", "0/1", "higher", 0.0,
             "sha256 of every simulated output equals the golden and "
             "is equal across passes"),
    EndToEnd("attempted_ops", "count", "higher", 0.0,
             "denominator of fail_share"),
)

#: End-to-end metrics that are constants of a correct run. The root
#: BENCHMARK.json cannot list them (its metrics must never be 0 and
#: must vary run to run); a driver run reports them as the result
#: line's ``failed``/``attempted``/``correct`` fields instead.
EXACT_END_TO_END = ("fail_share", "sim_identical", "attempted_ops")

S, P, A = "txn-standalone", "txn-passive", "txn-active"
D, F, G = "smp-des", "failover-timeline", "grid-1000"
ALL = (S, P, A, D, F, G)
TXN = (S, P, A)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]  # declared (non-zero by design) here
    moves: str  # what it should move, and what it should not
    exact: bool = False  # a simulated statistic: repeats exactly per seed


_M_PASSIVE = ("wall_s on txn-passive (then grid-1000); "
              "NOT txn-standalone, smp-des")
_M_ACTIVE = ("wall_s on txn-active; NOT txn-standalone, smp-des; "
             "txn-passive only via shared san code - watch it")
_M_ENGINE = ("wall_s on txn-standalone (diluted: txn-passive, "
             "txn-active); NOT smp-des, failover-timeline")
_M_SIM = ("wall_s on smp-des, then experiments.smp-validation_s and "
          "wall_s on grid-1000; NOT any txn-*")
_M_TIMELINE = "wall_s on failover-timeline; NOT txn-*, smp-des"
_M_TAKEOVER = "wall_s/setup_s on txn-passive, txn-active; NOT smp-des"
_M_GRID = "wall_s on grid-1000"
_M_EXACT = ("nothing: a simulated statistic, may change only "
            "together with sim_identical")
_M_SHARE = ("a faster layer saves at most this share of wall_s on "
            "the same workload (single-threaded)")


def _per_layer() -> List[Layer]:
    rows: List[Layer] = []

    def add(*fields):
        rows.append(Layer(*fields))

    def exact(*fields):
        rows.append(Layer(*fields, _M_EXACT, True))

    for layer in LAYERS + ("other",):
        add(f"{layer}.self_share", "ratio", "lower", ALL, _M_SHARE)

    add("sim.events", "count", "lower", (D, F, G),
        "nothing, except that a simulator-only optimisation may lower "
        "it while sim_identical stays 1", True)
    add("sim.run_s", "s", "lower", (D, F, G), _M_SIM)
    add("sim.events_per_s", "1/s", "higher", (D, F, G), _M_SIM)
    add("sim.heap_events_per_s", "1/s", "higher", (D,), _M_SIM)
    add("sim.wheel_events_per_s", "1/s", "higher", (F,), _M_TIMELINE)

    exact("memory.writes", "count", "lower", TXN)
    exact("memory.bytes_written", "B", "lower", TXN)
    for probe in ("fill", "copy", "cross"):
        add(f"memory.region_{probe}_mb_per_s", "MB/s", "higher", (S, P),
            _M_ENGINE)

    exact("hardware.packets", "count", "lower", (P, A))
    exact("hardware.mean_packet_bytes", "B", "higher", (P, A))
    add("hardware.wbuf_contig_stores_per_s", "1/s", "higher", (P,), _M_PASSIVE)
    add("hardware.wbuf_scatter_stores_per_s", "1/s", "higher", (P,), _M_PASSIVE)

    exact("san.io_stores", "count", "lower", (P, A))
    exact("san.bytes_sent", "B", "lower", (P, A))
    add("san.stores_per_s", "1/s", "higher", (P, A), _M_PASSIVE)

    for version in ("v0", "v1", "v2", "v3"):
        add(f"vista.{version}_txn_per_s", "txn/s", "higher", (S,), _M_ENGINE)
    for version in ("v0", "v1", "v2", "v3"):
        add(f"replication.{version}_txn_per_s", "txn/s", "higher", (P,),
            _M_PASSIVE)
    for safety in ("1safe", "2safe"):
        add(f"replication.active_{safety}_txn_per_s", "txn/s", "higher",
            (A,), _M_ACTIVE)
    add("replication.sync_initial_s", "s", "lower", (P, A), _M_TAKEOVER)
    add("replication.takeover_ms", "ms", "lower", (P, A), _M_TAKEOVER)
    exact("replication.redo_records", "count", "lower", (A,))

    exact("fastpath.replay_hits", "count", "higher", (P, A, G))
    exact("fastpath.replay_misses", "count", "lower", (P, A, G))
    add("fastpath.replay_hit_ratio", "ratio", "higher", (P, A, G), _M_PASSIVE)
    exact("fastpath.replay_entries", "count", "lower", (P, A, G))
    add("fastpath.diff_sparse_mb_per_s", "MB/s", "higher", (S,), _M_ENGINE)
    add("fastpath.diff_dense_mb_per_s", "MB/s", "higher", (S,), _M_ENGINE)

    add("workloads.run_s", "s", "lower", TXN, _M_ENGINE)
    add("workloads.setup_s", "s", "lower", TXN, _M_TAKEOVER)
    exact("workloads.txns", "count", "higher", TXN)
    add("workloads.txn_p50_us", "us", "lower", TXN, _M_ENGINE)
    add("workloads.txn_p99_us", "us", "lower", TXN, _M_ENGINE)

    add("perf.smp_sim_s", "s", "lower", (D, G), _M_SIM)
    exact("perf.smp_sim_points", "count", "lower", (D, G))
    add("perf.estimator_s", "s", "lower", (G,), _M_GRID)
    exact("perf.paper_err_pct", "%", "lower", (G,))
    exact("perf.smp_closed_form_err_pct", "%", "lower", (D,))

    exact("cluster.takeovers", "count", "lower", (F,))
    exact("cluster.sim_downtime_us", "us", "lower", (F,))
    add("shard.timeline_s", "s", "lower", (F,), _M_TIMELINE)
    exact("shard.routed", "count", "higher", (F,))
    exact("shard.completed", "count", "higher", (F,))
    exact("shard.trace_events", "count", "lower", (F,))
    add("quorum.timeline_s", "s", "lower", (F,), _M_TIMELINE)
    exact("quorum.ops_completed", "count", "higher", (F,))
    exact("quorum.trace_events", "count", "lower", (F,))

    add("obs.analyze_s", "s", "lower", (F,), _M_TIMELINE)
    exact("obs.audit_violations", "count", "lower", (F,))
    add("obs.trace_overhead_pct", "%", "lower", ALL,
        "nothing: the price of this ledger's own tracing "
        "(traced / untraced wall_s - 1), host time")

    for key in EXPERIMENT_KEYS:
        add(f"experiments.{key}_s", "s", "lower", (G,), _M_GRID)
    return rows


PER_LAYER: Tuple[Layer, ...] = tuple(_per_layer())
PER_LAYER_BY_NAME = {row.name: row for row in PER_LAYER}


def declared_layers(workload: str, tiny: bool = False) -> set:
    """The per-layer metrics a traced pass of ``workload`` must emit."""
    names = {row.name for row in PER_LAYER if workload in row.workloads}
    subset = sizes_of(workload, tiny).get("experiments")
    if subset is not None:
        # A grid of a few experiments only (the self-test's): the rest
        # have no span, and the paper error needs all of Tables 3/4/6.
        names -= {f"experiments.{key}_s" for key in EXPERIMENT_KEYS
                  if key not in subset}
        names.discard("perf.paper_err_pct")
    return names


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, in the benchmark contract's schema
    (which has no room for sizes, ``moves`` or numbers: those live in
    this module, the README and ``baseline/``)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": entry.why}
            for name, entry in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.name not in EXACT_END_TO_END
        ],
        "per_layer": [
            {"name": row.name, "unit": row.unit, "better": row.better}
            for row in PER_LAYER
        ],
    }
