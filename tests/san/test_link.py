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

