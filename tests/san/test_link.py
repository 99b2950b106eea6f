"""SharedLink: multi-sender contention accounting."""

import pytest

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.san.link import SharedLink
from repro.san.packets import PacketTrace


def test_total_link_time_sums_senders():
    link = SharedLink(MEMORY_CHANNEL_II)
    link.attach(PacketTrace({32: 10}))
    link.attach(PacketTrace({32: 10}))
    single = PacketTrace({32: 10}).link_time_us(MEMORY_CHANNEL_II)
    assert link.total_link_time_us() == pytest.approx(2 * single)


def test_utilization():
    link = SharedLink(MEMORY_CHANNEL_II)
    link.attach(PacketTrace({32: 100}))
    busy = link.total_link_time_us()
    assert link.utilization(busy * 2) == pytest.approx(0.5)
    assert link.utilization(busy / 2) == pytest.approx(2.0)  # infeasible load


def test_utilization_rejects_bad_elapsed():
    link = SharedLink(MEMORY_CHANNEL_II)
    with pytest.raises(ValueError):
        link.utilization(0.0)
