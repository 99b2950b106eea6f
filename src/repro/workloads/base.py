"""Workload abstractions.

A :class:`Workload` owns a database layout and knows how to run one
transaction against any :class:`TransactionTarget` — a standalone
engine, a passive replicated system, or an active replicated system
all satisfy the protocol. Workloads are deterministic given a seed and
keep a Python *shadow model* of the balances they maintain, which the
tests use to verify that the engine's bytes agree with ground truth.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Protocol, runtime_checkable

from repro.vista.api import HINT_RANDOM


@runtime_checkable
class TransactionTarget(Protocol):
    """Anything the RVM transaction API can be driven against."""

    def begin_transaction(self) -> None: ...

    def set_range(self, offset: int, length: int, hint: str = HINT_RANDOM) -> None: ...

    def write(self, offset: int, data: bytes) -> None: ...

    def read(self, offset: int, length: int) -> bytes: ...

    def commit_transaction(self) -> None: ...

    def abort_transaction(self) -> None: ...

    def initialize_data(self, offset: int, data: bytes) -> None: ...


class Workload(abc.ABC):
    """Base class for the paper's benchmarks."""

    name: str = "workload"

    def __init__(self, db_bytes: int, seed: int = 0):
        self.db_bytes = db_bytes
        self.seed = seed
        self.rng = random.Random(seed)
        self.transactions_run = 0
        self.type_counts: Dict[str, int] = {}

    @abc.abstractmethod
    def setup(self, target: TransactionTarget) -> None:
        """Load the initial database image (setup phase, not counted)."""

    @abc.abstractmethod
    def run_transaction(self, target: TransactionTarget) -> None:
        """Run one complete transaction (begin..commit) on ``target``."""

    def verify(self, target: TransactionTarget) -> None:
        """Check the database bytes against the shadow model; raises
        AssertionError on divergence. Optional per workload."""

    def _count(self, txn_type: str) -> None:
        self.transactions_run += 1
        self.type_counts[txn_type] = self.type_counts.get(txn_type, 0) + 1
