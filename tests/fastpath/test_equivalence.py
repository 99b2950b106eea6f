"""End-to-end equivalence: every measured number the driver collects
must be byte-identical as shipped and with every oracle in
``tests/oracles/`` substituted for its production twin.

This is the integration-level counterpart of the Hypothesis pair
suites in ``tests/properties/``: real replicated systems, real
workloads, full measurement surface (counters, access profile,
categorized traffic, packet histogram, I/O store count, ack bytes,
redo records).
"""

import functools

import pytest

from repro.cluster.cluster import ReplicatedCluster
from repro.fastpath import replay, shardpar
from repro.memory import rio
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.series import quorum_probes, router_probes, sim_probes
from repro.quorum import QuorumCluster, QuorumWorkload
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig
from repro.san import memory_channel
from repro.shard import ShardedCluster, ShardedWorkload
from repro.sim.engine import Simulator
from repro.vista import v2_mirror_diff
from repro.workloads import DebitCreditWorkload, OrderEntryWorkload, run_workload
from tests.oracles.diff_reference import diff_runs
from tests.oracles.region_reference import ReferenceMemoryRegion
from tests.oracles.writebuffer_reference import ReferenceWriteBufferModel

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=256 * 1024)


def _measure(make_target, workload_cls, transactions=120):
    return _measure_target(make_target(), workload_cls, transactions)


def _loaded(target, workload_cls):
    """``target`` with the workload's data loaded and shipped."""
    workload = workload_cls(CONFIG.db_bytes, seed=3)
    workload.setup(target)
    sync = getattr(target, "sync_initial", None)
    if sync is not None:
        sync()
    return workload


def _measure_target(target, workload_cls, transactions=120):
    workload = _loaded(target, workload_cls)
    result = run_workload(target, workload, transactions, warmup=20, verify=True)
    return {
        "counters": vars(result.counters).copy(),
        "working_set": dict(result.profile.working_set_bytes),
        "random_lines": dict(result.profile.random_lines),
        "sequential_bytes": dict(result.profile.sequential_bytes),
        "traffic": dict(result.traffic_bytes),
        "histogram": dict(result.packet_trace.histogram),
        "io_stores": result.io_stores,
        "ack_bytes": result.ack_bytes,
        "redo_records": result.redo_records,
    }


SYSTEMS = [
    ("passive-v0", lambda: PassiveReplicatedSystem("v0", CONFIG), DebitCreditWorkload),
    ("passive-v1", lambda: PassiveReplicatedSystem("v1", CONFIG), DebitCreditWorkload),
    ("passive-v2", lambda: PassiveReplicatedSystem("v2", CONFIG), DebitCreditWorkload),
    ("passive-v3", lambda: PassiveReplicatedSystem("v3", CONFIG), OrderEntryWorkload),
    (
        "passive-v3-undo",
        lambda: PassiveReplicatedSystem("v3", CONFIG, ship_undo_log=True),
        DebitCreditWorkload,
    ),
    ("active", lambda: ActiveReplicatedSystem(CONFIG), DebitCreditWorkload),
]


@pytest.mark.parametrize(
    "make_target,workload_cls",
    [(make, wl) for _name, make, wl in SYSTEMS],
    ids=[name for name, _make, _wl in SYSTEMS],
)
def test_fastpath_measurements_byte_identical(
    make_target, workload_cls, monkeypatch
):
    shipped = _measure(make_target, workload_cls)
    # Every node's regions, every interface's write buffers, the replay
    # cache's simulations (a fresh cache: the shared one holds packets
    # the shipped model formed) and Version 2's diff.
    monkeypatch.setattr(rio, "MemoryRegion", ReferenceMemoryRegion)
    monkeypatch.setattr(
        memory_channel, "WriteBufferModel", ReferenceWriteBufferModel)
    monkeypatch.setattr(replay, "WriteBufferModel", ReferenceWriteBufferModel)
    monkeypatch.setattr(
        memory_channel, "GLOBAL_REPLAY_CACHE", replay.PacketReplayCache())
    monkeypatch.setattr(  # a list: the views close before the runs are read
        v2_mirror_diff, "diff_runs_fast",
        lambda old, new: list(diff_runs(old, new)))
    assert _measure(make_target, workload_cls) == shipped


# -- observed == detached ------------------------------------------------------
#
# An observer is a reader: everything a system measures is the same
# whether one is attached or not. It is not invisible to the store
# path: an observed pair reads the link time at each transaction's
# begin and commit, and that read flushes the deferred stores, so the
# flush points move. The numbers do not, and the tests below hold
# them, on the transaction path and on the clock. The four
# ``san.<node>.*`` counters an observer is handed are the interface's
# own totals, folded at ordering points.

OBSERVABLE = [
    ("passive-v0", lambda obs: PassiveReplicatedSystem("v0", CONFIG, observer=obs)),
    ("passive-v1", lambda obs: PassiveReplicatedSystem("v1", CONFIG, observer=obs)),
    ("passive-v2", lambda obs: PassiveReplicatedSystem("v2", CONFIG, observer=obs)),
    ("passive-v3", lambda obs: PassiveReplicatedSystem("v3", CONFIG, observer=obs)),
    (
        "active-1safe",
        lambda obs: ActiveReplicatedSystem(
            CONFIG, safety=CommitSafety.ONE_SAFE, observer=obs
        ),
    ),
    (
        "active-2safe",
        lambda obs: ActiveReplicatedSystem(
            CONFIG, safety=CommitSafety.TWO_SAFE, observer=obs
        ),
    ),
]
observable = pytest.mark.parametrize(
    "make", [make for _name, make in OBSERVABLE],
    ids=[name for name, _make in OBSERVABLE],
)
SAN_METRICS = ("io_stores", "bytes", "packets", "packet_bytes")


def _interfaces(target):
    return [
        interface
        for name in ("interface", "primary_interface", "backup_interface")
        if (interface := getattr(target, name, None)) is not None
    ]


def _interface_totals(interface):
    trace = interface.trace
    return (interface.io_stores, interface.bytes_sent, trace.packets, trace.bytes)


def _registry_totals(observer, interface):
    return tuple(
        observer.registry.value(f"san.{interface.node_name}.{metric}")
        for metric in SAN_METRICS
    )


def _interface_states(system):
    return [
        {
            "histogram": dict(interface.trace.histogram),
            "io_stores": interface.io_stores,
            "bytes_by_category": dict(interface.bytes_by_category),
            "link_time_us": interface.link_time_us(),
        }
        for interface in _interfaces(system)
    ]


def _sim_state(sim):
    return {"events_processed": sim.events_processed, "now": sim.now}


def _measure_system(make, observer):
    target = make(observer)
    measured = _measure_target(target, DebitCreditWorkload)
    measured["interfaces"] = _interface_states(target)
    return measured


def _measure_pair(mode, version, observer):
    """A bare pair on its own simulator: a transaction every 250 us
    while it serves, a primary crash at 2.05 ms, the takeover."""
    sim = Simulator(observer=observer)
    failed_over = []
    pair = ReplicatedCluster(
        sim, "primary", "backup", failed_over.append,
        mode=mode, version=version, config=CONFIG,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
        observer=observer,
    )
    workload = _loaded(pair.system, DebitCreditWorkload)
    served = []

    def transact():
        if pair.is_available:
            workload.run_transaction(pair.serving)
            served.append(sim.now)

    for slot in range(120):
        sim.schedule_at(slot * 250.0, transact)
    pair.check_fault("crash", (0,))
    sim.schedule_at(2_050.0, functools.partial(pair.crash_member, 0))
    sim.run(until=30_000.0)
    return {
        "served": served,
        "failed_over": len(failed_over),
        "takeover": pair.takeover,
        "membership": pair.membership.history,
        "interfaces": _interface_states(pair.system),
        "engine": vars(pair.serving.counters).copy(),
        "sim": _sim_state(sim),
    }


def _measure_sharded(observer):
    """Two passive-V1 shards driven as the failover timeline drives
    them, shard 1's primary crashing at 3.25 ms."""
    cluster = ShardedCluster(
        2, mode="passive", version="v1", config=CONFIG,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
        observer=observer,
    )
    workload = ShardedWorkload("debit-credit", 2, CONFIG.db_bytes, seed=3)
    router, frame = shardpar.drive(
        cluster,
        workload,
        shardpar.fixed_load(
            12, 1_000.0,
            [shard.start for shard in workload.partitioner.ranges], 2,
        ),
        lambda cluster: cluster.crash(1, 0, 3_250.0),
        lambda router: {**sim_probes(cluster.sim), **router_probes(router)},
        horizon_us=42_000.0,
        slot_us=1_000.0,
    )
    return {
        "router": (router.routed, router.completed, router.dropped),
        "downtime_us": {
            shard_id: report.downtime_us
            for shard_id, report in cluster.takeovers.items()
        },
        "membership": cluster.membership.history,
        "pairs": [
            (pair.membership.history, _interface_states(pair.system))
            for pair in cluster.pairs
        ],
        "series": frame.to_dict(),
        "sim": _sim_state(cluster.sim),
    }


def _measure_quorum(sloppy, observer):
    """Three (3, 2, 2) groups: group 1 loses quorum and gets it back,
    group 2 is partitioned and heals, repair rounds run throughout."""
    cluster = QuorumCluster(
        3, replicas_per_group=3, read_quorum=2, write_quorum=2,
        keys_per_group=16, sloppy=sloppy, repair_interval_us=2_500.0,
        observer=observer,
    )

    def faults(cluster):
        cluster.crash(1, 1, 3_600.0)
        cluster.crash(1, 2, 5_250.0)
        cluster.recover(1, 1, 9_250.0)
        cluster.recover(1, 2, 12_000.0)
        cluster.partition(2, [0], [1, 2], at_us=6_000.0, heal_at_us=8_000.0)

    router, frame = shardpar.drive(
        cluster,
        QuorumWorkload(3, 16, seed=3),
        shardpar.fixed_load(16, 1_000.0, range(3), 2),
        faults,
        lambda router: {
            **sim_probes(cluster.sim),
            **router_probes(router),
            **quorum_probes(cluster.groups),
        },
        horizon_us=46_000.0,
        slot_us=1_000.0,
    )
    repaired = cluster.repair_pass_all()
    return {
        "router": (router.routed, router.completed, router.dropped),
        "stats": cluster.stats,
        "repaired": repaired,
        "converged": [group.replicas_converged() for group in cluster.groups],
        "series": frame.to_dict(),
        "sim": _sim_state(cluster.sim),
    }


def _measure_simulator(observer):
    """Three self-rescheduling chains that collide on timestamps."""
    sim = Simulator(observer=observer)
    fired = []

    def tick(chain, k):
        fired.append((sim.now, chain, k))
        if k < 40:
            sim.schedule_after(
                10.0 * ((chain + k) % 3), functools.partial(tick, chain, k + 1)
            )

    for chain in range(3):
        sim.schedule_at(0.0, functools.partial(tick, chain, 0))
    sim.run(until=150.0)
    paused = _sim_state(sim)
    sim.run()
    return {"fired": fired, "paused": paused, "sim": _sim_state(sim)}


OBSERVED_RUNS = [
    (name, functools.partial(_measure_system, make))
    for name, make in OBSERVABLE
] + [
    ("pair-passive-v1", functools.partial(_measure_pair, "passive", "v1")),
    ("pair-passive-v3", functools.partial(_measure_pair, "passive", "v3")),
    ("pair-active", functools.partial(_measure_pair, "active", "v3")),
    ("sharded-cluster", _measure_sharded),
    ("quorum-cluster-strict", functools.partial(_measure_quorum, False)),
    ("quorum-cluster-sloppy", functools.partial(_measure_quorum, True)),
    ("simulator", _measure_simulator),
]


@pytest.mark.parametrize(
    "measure", [measure for _name, measure in OBSERVED_RUNS],
    ids=[name for name, _measure in OBSERVED_RUNS],
)
def test_observed_measurements_equal_detached(measure):
    detached = measure(NULL_OBSERVER)
    attached = measure(Observer())
    assert attached == detached


@observable
def test_registry_totals_are_the_interface_totals(make):
    observer = Observer()
    target = make(observer)
    workload = _loaded(target, DebitCreditWorkload)
    interfaces = _interfaces(target)
    seen = [_registry_totals(observer, i) for i in interfaces]

    def run(transactions):
        for _ in range(transactions):
            workload.run_transaction(target)
            for index, interface in enumerate(interfaces):
                now = _registry_totals(observer, interface)
                assert all(a >= b for a, b in zip(now, seen[index]))
                seen[index] = now

    run(20)
    warm = [_interface_totals(i) for i in interfaces]
    assert [_registry_totals(observer, i) for i in interfaces] == warm
    assert any(total[0] for total in warm)

    # reset_stats zeroes the interface's totals; the registry is
    # cumulative, so it keeps them and counts on from there.
    for interface in interfaces:
        interface.reset_stats()
        assert _interface_totals(interface) == (0, 0, 0, 0)
    assert [_registry_totals(observer, i) for i in interfaces] == warm
    run(30)
    for interface, before in zip(interfaces, warm):
        # Totals first: the trace read is the ordering point that
        # folds an interface no barrier drains (the redo ring's).
        expected = tuple(
            a + b for a, b in zip(before, _interface_totals(interface))
        )
        assert _registry_totals(observer, interface) == expected


def test_crash_mid_batch_folds_the_deferred_stores():
    observer = Observer()
    target = PassiveReplicatedSystem("v3", CONFIG, observer=observer)
    workload = _loaded(target, DebitCreditWorkload)
    interface = target.interface
    for _ in range(5):
        workload.run_transaction(target)
    warm = _interface_totals(interface)
    interface.reset_stats()
    # An open transaction's doubled writes sit deferred on the
    # interface until the commit barrier that never comes.
    target.begin_transaction()
    target.set_range(0, 64)
    target.write(0, b"\x5a" * 64)
    assert interface._pending
    target.fail_primary()
    # The crash itself folded: read the registry before anything
    # (a trace read) could fold again.
    folded = _registry_totals(observer, interface)
    assert not interface._pending
    totals = _interface_totals(interface)
    assert all(totals)  # the deferred stores were issued and hit the wire
    assert folded == tuple(a + b for a, b in zip(warm, totals))
