"""Recovery time and availability analysis (extension).

The paper motivates replication with *availability*: Vista's data
survives a crash but is unavailable until the node reboots. It also
notes (Section 5.1) that the mirror versions trade faster failure-free
operation for a *longer recovery* — the backup must copy the entire
database from the mirror — "but since failure is the uncommon case,
this is a profitable tradeoff". This module quantifies both claims:

* per-design **takeover time** — failure detection plus the work the
  backup must do before serving (roll back an undo log, copy the whole
  mirror, or drain the redo ring);
* resulting **availability** against standalone Vista, whose downtime
  is a full OS reboot plus local recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hardware.specs import MEMORY_CHANNEL_II

US_PER_SECOND = 1e6

#: Late-90s AlphaServer bulk memory copy: ~300 MB/s.
MEMCPY_BYTES_PER_US = 300.0

#: The backup's per-transaction redo apply time.
APPLY_US = 0.5

#: An OS reboot on the paper's hardware, dominated by firmware + Unix
#: boot; Rio's warm reboot avoids fsck but not the boot itself.
REBOOT_US = 90.0 * US_PER_SECOND

#: Failure-detection latency of a replicated design (the heartbeat
#: timeout), and the mean time between failures availability assumes.
DETECTION_US = 5_000.0
MTBF_SECONDS = 30 * 24 * 3600.0


@dataclass(frozen=True)
class RecoveryProfile:
    """What a design must do between failure detection and service."""

    name: str
    detection_us: float
    bytes_to_restore: float
    needs_reboot: bool = False

    def takeover_us(self) -> float:
        work = self.bytes_to_restore / MEMCPY_BYTES_PER_US
        if self.needs_reboot:
            work += REBOOT_US
        return self.detection_us + work


def profiles_for(
    db_bytes: int,
    live_undo_bytes: float,
    ring_backlog_bytes: float,
) -> Dict[str, RecoveryProfile]:
    """Build the per-design recovery profiles.

    Args:
        db_bytes: database size (what the mirror versions must copy).
        live_undo_bytes: bytes of in-flight undo at the crash (what the
            log versions roll back — typically one transaction's worth).
        ring_backlog_bytes: unapplied redo at the crash (what the
            active backup drains — bounded by the ring size).

    Every replicated design detects the failure in :data:`DETECTION_US`.
    """
    return {
        "standalone (Vista)": RecoveryProfile(
            "standalone (Vista)",
            detection_us=0.0,
            bytes_to_restore=live_undo_bytes,
            needs_reboot=True,
        ),
        "passive v0 (undo rollback)": RecoveryProfile(
            "passive v0 (undo rollback)",
            detection_us=DETECTION_US,
            bytes_to_restore=live_undo_bytes,
        ),
        "passive v1/v2 (mirror restore)": RecoveryProfile(
            "passive v1/v2 (mirror restore)",
            detection_us=DETECTION_US,
            bytes_to_restore=float(db_bytes),
        ),
        "passive v3 (log rollback)": RecoveryProfile(
            "passive v3 (log rollback)",
            detection_us=DETECTION_US,
            bytes_to_restore=live_undo_bytes,
        ),
        "active (drain redo ring)": RecoveryProfile(
            "active (drain redo ring)",
            detection_us=DETECTION_US,
            bytes_to_restore=ring_backlog_bytes,
        ),
    }


def one_safe_window_us(redo_link_time_per_txn_us: float) -> float:
    """Duration of the 1-safe vulnerability window per commit.

    After the primary's commit returns, the transaction is lost if the
    primary dies before the redo records cross the SAN and land in the
    backup's memory: one link occupancy for the transaction's packets,
    plus the wire latency, plus the backup's apply time. The paper
    calls this "a very short window of vulnerability (a few
    microseconds)" — this makes the number concrete.
    """
    return MEMORY_CHANNEL_II.latency_us + redo_link_time_per_txn_us + APPLY_US


def availability(downtime_us_per_failure: float) -> float:
    """Steady-state availability at a :data:`MTBF_SECONDS` mean time
    between failures."""
    downtime_s = downtime_us_per_failure / US_PER_SECOND
    return MTBF_SECONDS / (MTBF_SECONDS + downtime_s)

