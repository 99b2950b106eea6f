"""End-to-end equivalence: every measured number the driver collects
must be byte-identical as shipped and with every oracle in
``tests/oracles/`` substituted for its production twin.

This is the integration-level counterpart of the Hypothesis pair
suites in ``tests/properties/``: real replicated systems, real
workloads, full measurement surface (counters, access profile,
categorized traffic, packet histogram, I/O store count, ack bytes,
redo records).
"""

import pytest

from repro.fastpath import replay
from repro.memory import rio
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig
from repro.san import memory_channel
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
# An observer is a reader: the interface it watches runs the same store
# path (batched pipeline, replay cache, the window's store lanes) and
# measures the same numbers as one nobody watches, and the four
# ``san.<node>.*`` counters it is handed are the interface's own
# totals, folded at ordering points.

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


@observable
def test_observed_measurements_equal_detached(make):
    def measure(observer):
        target = make(observer)
        measured = _measure_target(target, DebitCreditWorkload)
        measured["interfaces"] = [
            {
                "histogram": dict(interface.trace.histogram),
                "io_stores": interface.io_stores,
                "bytes_by_category": dict(interface.bytes_by_category),
                "link_time_us": interface.link_time_us(),
            }
            for interface in _interfaces(target)
        ]
        return measured

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
