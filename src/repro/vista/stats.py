"""Instrumentation for the transaction engines.

The performance model (:mod:`repro.perf`) never times Python — it
converts *operation counts* measured here into simulated hardware time.
Two kinds of information are gathered:

* :class:`EngineCounters` — how many of each structural operation the
  engine performed (allocations, list manipulations, bytes copied or
  compared, ...).
* :class:`AccessProfile` — the memory-locality footprint: how many
  cache lines of which working set were touched randomly versus how
  many bytes were streamed sequentially. This is what makes the
  paper's locality arguments (Section 4.5) quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class AccessProfile:
    """Cache-relevant memory footprint, grouped by working set.

    A *working set* is a named region family (``db``, ``mirror``,
    ``log``, ``heap``) with a size; random touches are counted in
    cache lines, sequential streaming in bytes.
    """

    working_set_bytes: Dict[str, int] = field(default_factory=dict)
    random_lines: Dict[str, float] = field(default_factory=dict)
    sequential_bytes: Dict[str, float] = field(default_factory=dict)
    line_size: int = 64

    def declare(self, name: str, size_bytes: int) -> None:
        """Register a working set and its size."""
        self.working_set_bytes[name] = size_bytes

    def touch_random(self, name: str, offset: int, length: int) -> None:
        """Record a random-placement access spanning ``length`` bytes."""
        if length <= 0:
            return
        first = offset // self.line_size
        last = (offset + length - 1) // self.line_size
        self.random_lines[name] = self.random_lines.get(name, 0.0) + (
            last - first + 1
        )

    def touch_sequential(self, name: str, nbytes: int) -> None:
        """Record streaming access of ``nbytes`` (misses once per line)."""
        if nbytes <= 0:
            return
        self.sequential_bytes[name] = (
            self.sequential_bytes.get(name, 0.0) + nbytes
        )

    def reset(self) -> None:
        """Zero the footprint in place (declarations included; callers
        re-declare their working sets). In-place matters: observers and
        registry bridges hold references to this object and must keep
        seeing live counts after a post-warmup reset."""
        self.working_set_bytes.clear()
        self.random_lines.clear()
        self.sequential_bytes.clear()

    def scaled(self, factor: float) -> "AccessProfile":
        scaled = AccessProfile(line_size=self.line_size)
        scaled.working_set_bytes = dict(self.working_set_bytes)
        scaled.random_lines = {
            name: lines * factor for name, lines in self.random_lines.items()
        }
        scaled.sequential_bytes = {
            name: nbytes * factor
            for name, nbytes in self.sequential_bytes.items()
        }
        return scaled


@dataclass
class EngineCounters:
    """Operation counts accumulated by an engine over a run."""

    transactions: int = 0
    commits: int = 0
    aborts: int = 0
    set_ranges: int = 0
    set_range_bytes: int = 0
    db_writes: int = 0
    db_bytes_written: int = 0
    undo_bytes_copied: int = 0
    bytes_compared: int = 0
    mallocs: int = 0
    frees: int = 0
    list_ops: int = 0
    walk_steps: int = 0
    bump_allocs: int = 0
    array_pushes: int = 0
    rollback_bytes: int = 0
    recoveries: int = 0

    def reset(self) -> None:
        """Zero every field in place — same end state as assigning a
        fresh EngineCounters, but anyone holding a reference (an obs
        registry bridge, a test, a dashboard) keeps seeing live counts
        instead of a dead snapshot."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def per_transaction(self) -> Dict[str, float]:
        """Averages per committed-or-aborted transaction."""
        txns = max(1, self.transactions)
        return {
            name: getattr(self, name) / txns
            for name in self.__dataclass_fields__
            if name != "transactions"
        }

    def snapshot_into(self, registry, prefix: str) -> None:
        """Fold these operation counts into an obs registry under
        ``prefix`` (one counter per field, e.g. ``<prefix>.commits``).

        This is the bridge that merges the engines' own bookkeeping
        with the observability namespace: a report reads
        ``shard.0.cluster.takeover.engine.rollback_bytes`` next to
        ``shard.0.router.retries`` from one registry. Uses absolute
        ``set`` semantics, so re-snapshotting the same counters is
        idempotent rather than double-counting.
        """
        for name in self.__dataclass_fields__:
            registry.counter(f"{prefix}.{name}").set(getattr(self, name))
