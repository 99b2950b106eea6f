"""Plain-text table and figure formatting for experiment output.

Every experiment prints the same rows/series the paper reports, side
by side with the paper's numbers and the measured/paper ratio, so the
*shape* claims (who wins, by what factor) are auditable at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


@dataclass
class ReportTable:
    """An aligned, plain-text table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: whether each measured/paper pair is followed by its ratio.
    ratios: bool = False

    @classmethod
    def against_paper(cls, title: str, label: str, groups: Sequence[str],
                      ratios: bool = False) -> "ReportTable":
        """A table of measured values beside the paper's: a label
        column, then per group the measured value, ``paper`` and
        (with ``ratios``) ``ratio``."""
        columns = [label]
        for group in groups:
            columns += [group, "paper", "ratio"] if ratios else [group, "paper"]
        return cls(title, columns, ratios=ratios)

    def add_compared_row(self, label: str, pairs: Iterable[tuple]) -> None:
        """The one builder of a measured/paper row: ``pairs`` is one
        ``(measured, paper)`` per column group."""
        cells: List[object] = []
        for measured, paper in pairs:
            cells += [measured, paper]
            if self.ratios:
                cells.append(ratio(measured, paper))
        self.add_row(label, *cells)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[index]) if index else cell.ljust(widths[index])
                          for index, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def ratio(measured: float, paper: float) -> str:
    """measured/paper as a compact string ('-' when undefined)."""
    if paper == 0:
        return "-"
    return f"{measured / paper:.2f}x"


def ascii_series(
    title: str,
    x_values: Sequence[object],
    series: Iterable[tuple],
    width: int = 48,
) -> str:
    """A small text rendering of a figure: one row per (label, ys)
    series with a proportional bar per point — enough to eyeball the
    scaling shapes of Figures 2 and 3 in a terminal."""
    series = list(series)
    peak = max(
        (y for _label, ys in series for y in ys), default=1.0
    ) or 1.0
    lines = [title, "=" * len(title)]
    for label, ys in series:
        lines.append(label)
        for x, y in zip(x_values, ys):
            bar = "#" * max(1, int(width * y / peak))
            lines.append(f"  {str(x):>4}  {y:>12,.0f}  {bar}")
    return "\n".join(lines)
