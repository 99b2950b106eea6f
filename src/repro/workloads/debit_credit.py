"""Debit-Credit: the Vista variant of TPC-B (Section 2.4).

TPC-B models banking transactions: the database holds branches,
tellers and accounts; each transaction updates the balance of a random
account and the balances of the corresponding branch and teller, and
appends a history record to an audit trail. The Vista variant keeps
the audit trail in a **2 MB circular buffer** so everything stays in
memory.

Per transaction the declared set_ranges cover three 4-byte balances
plus one ~50-byte history slot (~62 bytes of undo), while the bytes
actually modified are three balances and a 16-byte history record
(~28 bytes) — reproducing the paper's per-transaction traffic profile
(Table 5: 140.8 MB modified / 323.2 MB undo over the run ≈ 28 / 65
bytes per transaction).
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.errors import ConfigurationError
from repro.vista.api import HINT_SEQUENTIAL
from repro.workloads.base import TransactionTarget, Workload
from repro.workloads.layout import DatabaseLayout

MB = 1024 * 1024

RECORD_BYTES = 100  # TPC-B: 100-byte branch/teller/account records
AUDIT_BYTES = 2 * MB
AUDIT_SLOT_BYTES = 50  # the history set_range (TPC-B history row size)
AUDIT_RECORD_BYTES = 16  # bytes actually written: aid, tid, bid, delta
TELLERS_PER_BRANCH = 10
_HISTORY = struct.Struct("<iiii")


class DebitCreditWorkload(Workload):
    """The Debit-Credit benchmark over a database of ``db_bytes``."""

    name = "debit-credit"

    def __init__(self, db_bytes: int, seed: int = 0):
        super().__init__(db_bytes, seed)
        if db_bytes < AUDIT_BYTES + 30 * RECORD_BYTES:
            raise ConfigurationError(
                f"Debit-Credit needs more than {AUDIT_BYTES} bytes of "
                f"database; got {db_bytes}"
            )
        layout = DatabaseLayout(db_bytes)
        usable = db_bytes - AUDIT_BYTES
        # Keep TPC-B's 1 branch : 10 tellers : N accounts shape; nearly
        # all of the space goes to accounts.
        accounts = max(10, int(usable * 0.97) // RECORD_BYTES)
        branches = max(1, accounts // 100_000)
        tellers = branches * TELLERS_PER_BRANCH

        balance_field = {"balance": (0, 4), "filler": (4, 4)}
        self.branches = layout.add_table("branch", RECORD_BYTES, branches, balance_field)
        self.tellers = layout.add_table("teller", RECORD_BYTES, tellers, balance_field)
        self.accounts = layout.add_table(
            "account", RECORD_BYTES, accounts, balance_field
        )
        self.audit_base, self.audit_size = layout.add_area("audit", AUDIT_BYTES)
        self.audit_slots = self.audit_size // AUDIT_SLOT_BYTES
        self.layout = layout

        # Shadow model: expected balances, for verification.
        self.shadow: Dict[str, Dict[int, int]] = {
            "branch": {},
            "teller": {},
            "account": {},
        }

    # -- setup ---------------------------------------------------------------

    def setup(self, target: TransactionTarget) -> None:
        """Balances start at zero (regions are zero-filled), so setup
        only needs to exist for symmetry; kept explicit so replicated
        targets can hook their initial sync."""
        target.initialize_data(0, b"\x00")

    # -- one transaction --------------------------------------------------------

    def run_transaction(self, target: TransactionTarget) -> None:
        rng = self.rng
        account_id = rng.randrange(self.accounts.records)
        branch_id = min(
            account_id * self.branches.records // self.accounts.records,
            self.branches.records - 1,
        )
        teller_id = branch_id * TELLERS_PER_BRANCH + rng.randrange(
            TELLERS_PER_BRANCH
        )
        delta = rng.randrange(-999_999, 1_000_000)

        target.begin_transaction()
        for table, index in (
            (self.accounts, account_id),
            (self.tellers, teller_id),
            (self.branches, branch_id),
        ):
            target.set_range(table.field_offset(index, "balance"), 4)
            table.add_to_field(target, index, "balance", delta)

        slot = self.transactions_run % self.audit_slots
        slot_offset = self.audit_base + slot * AUDIT_SLOT_BYTES
        target.set_range(slot_offset, AUDIT_SLOT_BYTES, hint=HINT_SEQUENTIAL)
        target.write(
            slot_offset,
            _HISTORY.pack(account_id, teller_id, branch_id, delta & 0x7FFFFFFF),
        )
        target.commit_transaction()

        for name, index in (
            ("account", account_id),
            ("teller", teller_id),
            ("branch", branch_id),
        ):
            self.shadow[name][index] = self.shadow[name].get(index, 0) + delta
        self._count("debit-credit")

    # -- verification ---------------------------------------------------------------

    def verify(self, target: TransactionTarget) -> None:
        tables = {
            "account": self.accounts,
            "teller": self.tellers,
            "branch": self.branches,
        }
        for name, balances in self.shadow.items():
            table = tables[name]
            for index, expected in balances.items():
                actual = table.read_field(target, index, "balance")
                if actual != expected:
                    raise AssertionError(
                        f"{name}[{index}] balance is {actual}, "
                        f"shadow model expects {expected}"
                    )

    def consistency_check(self, target: TransactionTarget) -> None:
        """TPC-B invariant: sum of account balances == sum of teller
        balances == sum of branch balances (computed from the actual
        database bytes; untouched records hold zero)."""
        sums = []
        for name, table in (
            ("account", self.accounts),
            ("teller", self.tellers),
            ("branch", self.branches),
        ):
            sums.append(
                sum(
                    table.read_field(target, index, "balance")
                    for index in self.shadow[name]
                )
            )
        if not sums[0] == sums[1] == sums[2]:
            raise AssertionError(f"balance sums diverged: {sums}")
