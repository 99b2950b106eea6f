"""The Rio reliable-memory model.

Rio (Chen et al., ASPLOS '96) makes main memory survive the two common
causes of memory loss: power failures (via a UPS) and operating-system
crashes (by write-protecting file-cache memory and restoring it during
warm reboot). Vista keeps its database, undo log and heap in Rio, so a
node crash loses no data — the data is merely *unavailable* until the
node reboots, which is the availability gap this paper's replication
closes.

The model here gives each node a :class:`RioMemory` holding named
persistent regions. A simulated crash (:meth:`crash`) preserves region
contents while the owning node discards all of its volatile state;
:meth:`reboot` makes the regions accessible again so recovery can run.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import CrashedError
from repro.memory.region import MemoryRegion


class RioMemory:
    """A set of named memory regions that survive node crashes."""

    def __init__(self, node_name: str = "node", protect_regions: bool = False):
        self.node_name = node_name
        self.protect_regions = protect_regions
        self._regions: Dict[str, MemoryRegion] = {}
        self._crashed = False
        self.crash_count = 0

    # -- region management -----------------------------------------------

    def create_region(self, name: str, size: int, base: int = 0) -> MemoryRegion:
        """Create a persistent region; names must be unique per node."""
        self._check_alive()
        if name in self._regions:
            raise ValueError(
                f"region {name!r} already exists in Rio of {self.node_name!r}"
            )
        region = MemoryRegion(f"{self.node_name}/{name}", size, base)
        if self.protect_regions:
            region.protect()
        self._regions[name] = region
        return region

    def get_region(self, name: str) -> MemoryRegion:
        """Look up a persistent region by name (e.g. after a reboot)."""
        self._check_alive()
        try:
            return self._regions[name]
        except KeyError:
            raise KeyError(
                f"no Rio region {name!r} on node {self.node_name!r}"
            ) from None

    def has_region(self, name: str) -> bool:
        return name in self._regions

    def drop_region(self, name: str) -> None:
        self._check_alive()
        del self._regions[name]

    def regions(self) -> Iterator[MemoryRegion]:
        return iter(self._regions.values())

    # -- crash semantics ---------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_alive(self) -> None:
        if self._crashed:
            raise CrashedError(
                f"Rio memory of {self.node_name!r} is unavailable: node crashed"
            )

    def crash(self) -> None:
        """Simulate an OS crash: contents are preserved but unavailable.

        While crashed, every access raises :class:`CrashedError` — this
        is exactly Vista's availability gap. Observers attached to the
        regions are detached, matching the fact that a crashed node no
        longer drives its Memory Channel mappings.
        """
        if self._crashed:
            return
        self._crashed = True
        self.crash_count += 1
        for region in self._regions.values():
            region._observers.clear()
            region._crashed = True

    def reboot(self) -> None:
        """Warm reboot: Rio restores the protected regions intact."""
        self._crashed = False
        for region in self._regions.values():
            region._crashed = False

    def __repr__(self) -> str:
        state = "crashed" if self._crashed else "up"
        return (
            f"RioMemory({self.node_name!r}, regions={sorted(self._regions)}, "
            f"{state})"
        )
