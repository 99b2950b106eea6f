"""Version 2 — mirroring by diffing (Section 4.3).

Identical in structure to Version 1, but at commit the database and
mirror copies of each declared range are *compared* and only the words
that actually changed are written to the mirror. Fewer bytes are
written than Version 1 (only modifications, not whole ranges) at the
price of reading and comparing both copies.

Standalone, the comparison cost outweighs the savings (Table 3); with
a passive backup the saved Memory Channel traffic makes Version 2
slightly better than Version 1 (Table 4) — both results emerge from
the counts this class records.
"""

from __future__ import annotations

from repro.fastpath.kernels import diff_runs_fast
from repro.memory.region import WriteCategory
from repro.vista.v1_mirror_copy import MirrorCopyEngine


class MirrorDiffEngine(MirrorCopyEngine):
    """Version 2: set_range array + mirror refreshed by diffing."""

    VERSION = "v2"
    TITLE = "Version 2 (Mirror by Diff)"

    def _update_mirror(self, offset: int, length: int) -> None:
        """Refresh the mirror for one committed range by comparing the
        two copies and writing only the differing runs."""
        # Zero-copy views of both regions into the big-int XOR scan.
        with self.db.view(offset, length) as current_view, self.mirror.view(
            offset, length
        ) as committed_view:
            runs = diff_runs_fast(committed_view, current_view)
        current = self.db.read(offset, length)
        self.counters.bytes_compared += length
        self.profile.touch_random("mirror", offset, length)
        for run_offset, run_length in runs:
            self.mirror.write(
                offset + run_offset,
                current[run_offset : run_offset + run_length],
                WriteCategory.UNDO,
            )
            self.counters.undo_bytes_copied += run_length
