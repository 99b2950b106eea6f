"""Recovery-time and availability model (extension)."""

import pytest

from repro.obs.slo import MAX_NINES, nines
from repro.replication.recovery_time import (
    MEMCPY_BYTES_PER_US,
    REBOOT_US,
    RecoveryProfile,
    availability,
    profiles_for,
)

MB = 1024 * 1024


def test_takeover_time_components():
    profile = RecoveryProfile("x", detection_us=1000.0,
                              bytes_to_restore=3000.0)
    assert profile.takeover_us() == pytest.approx(
        1000.0 + 3000.0 / MEMCPY_BYTES_PER_US
    )


def test_reboot_dominates_standalone():
    profile = RecoveryProfile("standalone", detection_us=0.0,
                              bytes_to_restore=64.0, needs_reboot=True)
    assert profile.takeover_us() >= REBOOT_US


def test_profiles_for_designs():
    profiles = profiles_for(
        db_bytes=50 * MB, live_undo_bytes=100.0,
        ring_backlog_bytes=5000.0,
    )
    assert set(profiles) == {
        "standalone (Vista)",
        "passive v0 (undo rollback)",
        "passive v1/v2 (mirror restore)",
        "passive v3 (log rollback)",
        "active (drain redo ring)",
    }
    mirror = profiles["passive v1/v2 (mirror restore)"]
    log = profiles["passive v3 (log rollback)"]
    assert mirror.bytes_to_restore == 50 * MB
    # Strip detection to compare pure restore work: the whole-database
    # copy is orders of magnitude more than a one-transaction rollback.
    mirror_work = mirror.takeover_us() - mirror.detection_us
    log_work = log.takeover_us() - log.detection_us
    assert mirror_work > 1000 * log_work


def test_mirror_restore_scales_with_db_size():
    small = profiles_for(10 * MB, 100.0, 0.0)["passive v1/v2 (mirror restore)"]
    large = profiles_for(100 * MB, 100.0, 0.0)["passive v1/v2 (mirror restore)"]
    assert large.takeover_us() > 5 * small.takeover_us()


def test_availability_basics():
    assert availability(0.0) == 1.0
    # 1 second of downtime per 30-day MTBF.
    month = 30 * 24 * 3600.0
    assert availability(1e6) == pytest.approx(month / (month + 1.0))


def test_nines():
    assert nines(0.999) == pytest.approx(3.0)
    assert nines(0.99999) == pytest.approx(5.0)
    assert nines(1.0) == MAX_NINES


def test_replication_buys_many_nines():
    standalone = RecoveryProfile("s", 0.0, 64.0, needs_reboot=True)
    replicated = RecoveryProfile("r", 5000.0, 64.0)
    gap = nines(availability(replicated.takeover_us())) - nines(
        availability(standalone.takeover_us())
    )
    assert gap > 3.0  # detection-bounded failover vs a reboot
