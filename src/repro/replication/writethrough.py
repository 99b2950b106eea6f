"""Write-through replication of memory regions.

A :class:`ReplicaBinding` is the glue of the passive schemes: it
observes every write to a primary region and re-issues it ("write
doubling") into a Memory Channel transmit mapping backed by the
backup's copy of that region. The binding preserves the write's
category, so the backup-side traffic tables (Tables 2, 5) follow
directly from the engine's own categorized writes.

:class:`WriteThroughReplica` manages a set of bindings: it creates the
backup-side twin of each replicated region, installs the mappings and
observers, and can synchronize the initial image (which happens at
mapping time on the real hardware and is not counted as traffic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.memory.region import MemoryRegion
from repro.memory.rio import RioMemory
from repro.san.memory_channel import MemoryChannelInterface, TransmitMapping


class ReplicaBinding:
    """Forwards writes on ``local`` into ``mapping`` (write doubling).

    ``fragmented`` marks regions whose doubled stores do not coalesce:
    copying into a mirror streams through cache-missing lines, so the
    write buffer drains between word stores and each word leaves as
    its own Memory Channel packet (the paper's "mirroring protocols do
    not benefit at all from data aggregation", Section 8).
    """

    def __init__(
        self,
        local: MemoryRegion,
        mapping: TransmitMapping,
        fragmented: bool = False,
    ):
        self.local = local
        self.mapping = mapping
        self.fragmented = fragmented
        self.forwarded_writes = 0
        # This callback runs once per write of every replicated
        # region, the hottest call site in the repo.
        local.add_observer(self._forward)

    def _forward(self, offset: int, length: int, category) -> None:
        mapping = self.mapping
        if not self.fragmented:
            # The local write that triggered this callback was
            # bounds-checked against a region the same size as the
            # window, so skip re-validation and the per-store call
            # chain (mapping.write -> _transmit).
            mapping.interface._transmit_trusted(
                mapping,
                offset,
                self.local.data[offset : offset + length],
                category,
            )
        else:
            mapping.write_uncoalesced(
                offset, self.local.read(offset, length), category
            )
        self.forwarded_writes += 1

    def detach(self) -> None:
        try:
            self.local.remove_observer(self._forward)
        except ValueError:
            pass  # a node crash already cleared the region's observers


class WriteThroughReplica:
    """Backup-side twins plus the bindings that keep them current."""

    def __init__(
        self,
        interface: MemoryChannelInterface,
        backup_rio: RioMemory,
    ):
        self.interface = interface
        self.backup_rio = backup_rio
        self.bindings: List[ReplicaBinding] = []
        self.backup_regions: Dict[str, MemoryRegion] = {}

    def twin_region(self, name: str, size: int) -> MemoryRegion:
        """Create (or fetch) the backup's copy of region ``name``."""
        if self.backup_rio.has_region(name):
            return self.backup_rio.get_region(name)
        region = self.backup_rio.create_region(name, size)
        self.backup_regions[name] = region
        return region

    def bind(
        self, local: MemoryRegion, name: str, fragmented: bool = False
    ) -> ReplicaBinding:
        """Twin ``local`` on the backup and start write doubling."""
        remote = self.twin_region(name, local.size)
        mapping = self.interface.map_remote(remote, name=name)
        binding = ReplicaBinding(local, mapping, fragmented=fragmented)
        self.bindings.append(binding)
        return binding

    def bind_all(
        self,
        locals_by_name: Dict[str, MemoryRegion],
        names: Iterable[str],
        fragmented_names: Iterable[str] = (),
    ) -> None:
        fragmented = set(fragmented_names)
        for name in names:
            self.bind(locals_by_name[name], name, fragmented=name in fragmented)

    def sync_initial(self, locals_by_name: Dict[str, MemoryRegion]) -> None:
        """Copy current contents to the backup twins (mapping-time
        image; bypasses traffic accounting on purpose)."""
        for name, region in self.backup_regions.items():
            local = locals_by_name.get(name)
            if local is not None:
                region.load_snapshot(local.snapshot())

    def detach_all(self) -> None:
        for binding in self.bindings:
            binding.detach()
        self.bindings.clear()
