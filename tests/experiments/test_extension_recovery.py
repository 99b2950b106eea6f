"""The recovery-time extension experiment."""

from repro.experiments import extension_recovery

MB = 1024 * 1024


def test_runs_checks_and_renders():
    result = extension_recovery.run()
    result.check()
    rendered = result.table().render()
    assert "mirror restore" in rendered
    assert "nines" in rendered


def test_measured_restore_bytes_back_the_model():
    result = extension_recovery.run()
    # v1/v2 failover really copied the whole database; v3 rolled back
    # only the dangling transaction's undo.
    assert result.measured_restore_bytes["v1"] == 8 * MB
    assert result.measured_restore_bytes["v2"] == 8 * MB
    assert 64 <= result.measured_restore_bytes["v3"] <= 256
    assert result.measured_restore_bytes["v0"] >= 64
