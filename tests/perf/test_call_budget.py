"""A deterministic cost guard on the transaction path and the SMP link.

Host time on a shared machine swings by tens of percent between runs;
the number of Python frames a run enters does not. For each engine,
V0–V3, under each paper workload, this counts the calls into ``repro``
functions per transaction (``sys.setprofile`` ``call`` events) and
holds every cell to its budget: the count measured when field access,
the engine API, the pair wrappers and V0's heap stopped passing through
helper frames (V1 and V2: when the range array's push and V1's range
read stopped calling the allocator's helpers), plus 2 %. A change that
puts a frame back on the store path fails here before it shows in a
timing.

One SMP validation point is held the same way, with the events it
fires pinned exactly: fewer calls for the same events is the link
draining one posted burst at a time, not a different simulation. So is
one observed failover timeline: it holds the work an attached
observer adds on the clock (heartbeats, router, sampler, takeover).

Frames whose name starts with ``<`` (comprehensions, lambdas, genexprs)
are not counted: Python 3.12 inlines comprehensions, and the counts
must be the same on every supported interpreter.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.extension_sharding import failover_plan
from repro.fastpath import shardpar
from repro.memory.rio import RioMemory
from repro.obs import Observer
from repro.perf.smp_sim import packet_sequence, simulate_smp
from repro.san.packets import PacketTrace
from repro.sim.engine import Simulator
from repro.vista import EngineConfig, create_engine
from repro.workloads import DebitCreditWorkload, OrderEntryWorkload

DB_BYTES = 4 << 20  # the smallest database both workloads accept
SEED = 42
WARMUP = 20
TRANSACTIONS = 100
SLACK = 1.02

#: Calls into ``repro`` per transaction, measured at the sizes above.
BUDGET = {
    ("v0", "debit-credit"): 208.0,
    ("v0", "order-entry"): 569.91,
    ("v1", "debit-credit"): 92.0,
    ("v1", "order-entry"): 250.51,
    ("v2", "debit-credit"): 114.0,
    ("v2", "order-entry"): 306.35,
    ("v3", "debit-credit"): 62.0,
    ("v3", "order-entry"): 179.83,
}

#: One point of the SMP validation as the grid records it at seed 42
#: and 1,000 transactions: Debit-Credit on passive V3, four processors
#: sharing the link. Its bursts are several packets long and its
#: streams stall, so it drives the link's drain loop, the wakes and
#: the posts.
SMP_POINT = {
    "cpu_us": 2.909572749788029,
    "histogram": {2: 126, 4: 3124, 6: 126, 8: 1124, 10: 126, 12: 124,
                  14: 1126, 16: 562, 32: 3000},
    "transactions": 1000,
    "processors": 4,
}
#: Calls into ``repro`` for the whole point, and the events it fires.
SMP_CALL_BUDGET = 183_688
SMP_EVENTS = 31_665

#: A two-shard passive-V1 timeline, one primary crash, observer
#: attached: calls into ``repro`` for the whole run (a cold replay
#: cache; a warm one only lowers it), and the events it fires.
TIMELINE_PLAN = failover_plan(
    num_shards=2, slots=40, offered_per_shard=2, crashes=((1, 10250.0),))
TIMELINE_CALL_BUDGET = 72_490
TIMELINE_EVENTS = 2_593

WORKLOADS = {
    workload.name: workload
    for workload in (DebitCreditWorkload, OrderEntryWorkload)
}

_PACKAGE = str(Path(repro.__file__).resolve().parent)


def calls_per_transaction(version: str, workload_name: str) -> float:
    """Calls into ``repro`` functions per transaction of a standalone
    engine, after a warm-up."""
    engine = create_engine(
        version, RioMemory(f"budget-{version}"), EngineConfig(db_bytes=DB_BYTES)
    )
    workload = WORKLOADS[workload_name](DB_BYTES, seed=SEED)
    workload.setup(engine)
    for _ in range(WARMUP):
        workload.run_transaction(engine)

    def run() -> None:
        for _ in range(TRANSACTIONS):
            workload.run_transaction(engine)

    return calls_into_repro(run) / TRANSACTIONS


def calls_into_repro(run) -> int:
    """Calls into ``repro`` functions while ``run()`` runs."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and not code.co_name.startswith("<")):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("version, workload_name", sorted(BUDGET))
def test_a_transaction_stays_within_its_call_budget(version, workload_name):
    measured = calls_per_transaction(version, workload_name)
    budget = BUDGET[version, workload_name]
    assert measured <= budget * SLACK, (
        f"{version} {workload_name}: {measured:.2f} calls into repro per "
        f"transaction, over the budget of {budget:.2f} + 2 %"
    )


def count_events(monkeypatch) -> list:
    """A one-item list that sums the events of every simulator run
    from now on."""
    events = [0]
    run = Simulator.run

    def counted(self, until=None):
        # Events are read around the run, as the ledger's simulator timer does.
        try:
            return run(self, until)
        finally:
            events[0] += self.events_processed

    monkeypatch.setattr(Simulator, "run", counted)
    return events


def test_an_smp_point_stays_within_its_call_budget(monkeypatch):
    txn_packets = packet_sequence(
        PacketTrace(dict(SMP_POINT["histogram"])), SMP_POINT["transactions"])
    events = count_events(monkeypatch)
    calls = calls_into_repro(lambda: simulate_smp(
        SMP_POINT["cpu_us"], txn_packets, SMP_POINT["processors"]))
    assert events == [SMP_EVENTS]
    assert calls <= SMP_CALL_BUDGET * SLACK, (
        f"{calls} calls into repro for the SMP point, over the budget of "
        f"{SMP_CALL_BUDGET} + 2 %"
    )


def test_an_observed_timeline_stays_within_its_call_budget(monkeypatch):
    events = count_events(monkeypatch)
    calls = calls_into_repro(
        lambda: shardpar.execute(TIMELINE_PLAN, observer=Observer()))
    assert events == [TIMELINE_EVENTS]
    assert calls <= TIMELINE_CALL_BUDGET * SLACK, (
        f"{calls} calls into repro for the observed timeline, over the "
        f"budget of {TIMELINE_CALL_BUDGET} + 2 %"
    )
