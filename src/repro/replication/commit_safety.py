"""Commit-safety levels.

The paper's systems are **1-safe** (Section 2.1, following Gray &
Reuter): commit returns as soon as the commit completes on the
primary, leaving a window of a few microseconds in which a failure
loses a committed transaction. **2-safe** closes the window by making
commit wait until the backup durably has the transaction, at the price
of a SAN round trip per commit. The paper ships 1-safe only; 2-safe is
implemented here as an extension and quantified in an ablation
benchmark.
"""

from __future__ import annotations

import enum

from repro.hardware.specs import SanSpec


class CommitSafety(enum.Enum):
    """How much of the commit pipeline a commit call waits for."""

    ONE_SAFE = "1-safe"
    TWO_SAFE = "2-safe"

    def extra_commit_latency_us(self, san: SanSpec) -> float:
        """Added per-commit latency versus local-only commit.

        1-safe adds nothing (the write-through drains asynchronously).
        2-safe waits for the commit record to reach the backup and for
        the acknowledgment to come back: one SAN round trip.
        """
        if self is CommitSafety.ONE_SAFE:
            return 0.0
        return 2.0 * san.latency_us

    def barrier_phase_us(self, san: SanSpec) -> float:
        """Duration of the commit span's ``barrier`` phase under this
        safety level — the synchronous wait the pipeline cannot hide
        (:mod:`repro.obs.spans` charges it after the ship phase)."""
        return self.extra_commit_latency_us(san)
