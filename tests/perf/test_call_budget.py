"""A deterministic cost guard on the transaction path.

Host time on a shared machine swings by tens of percent between runs;
the number of Python frames a transaction enters does not. For each
engine, V0–V3, under each paper workload, this counts the calls into
``repro`` functions per transaction (``sys.setprofile`` ``call``
events) and holds every cell to its budget: the count measured when
field access, the engine API, the pair wrappers and V0's heap stopped
passing through helper frames, plus 2 %. A change that puts a frame
back on the store path fails here before it shows in a timing.

Frames whose name starts with ``<`` (comprehensions, lambdas, genexprs)
are not counted: Python 3.12 inlines comprehensions, and the counts
must be the same on every supported interpreter.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.memory.rio import RioMemory
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
    ("v1", "debit-credit"): 108.0,
    ("v1", "order-entry"): 293.63,
    ("v2", "debit-credit"): 130.0,
    ("v2", "order-entry"): 349.47,
    ("v3", "debit-credit"): 62.0,
    ("v3", "order-entry"): 179.83,
}

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
        for _ in range(TRANSACTIONS):
            workload.run_transaction(engine)
    finally:
        sys.setprofile(previous)
    return calls / TRANSACTIONS


@pytest.mark.parametrize("version, workload_name", sorted(BUDGET))
def test_a_transaction_stays_within_its_call_budget(version, workload_name):
    measured = calls_per_transaction(version, workload_name)
    budget = BUDGET[version, workload_name]
    assert measured <= budget * SLACK, (
        f"{version} {workload_name}: {measured:.2f} calls into repro per "
        f"transaction, over the budget of {budget:.2f} + 2 %"
    )
