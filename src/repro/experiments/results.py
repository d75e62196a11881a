"""Result containers and text rendering for the experiment tables.

Every table runner returns an :class:`ExperimentTable`, which knows how to
render itself in the row/column layout of the corresponding paper table and
carries the paper's reference numbers for side-by-side comparison in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One table cell: mean ± std over seeds (std 0 for single-seed runs)."""

    mean: float
    std: float = 0.0

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f}"

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Cell":
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            raise ValueError("cannot build a cell from zero values")
        return cls(mean=float(array.mean()), std=float(array.std()))


@dataclass
class ExperimentTable:
    """A reproduced table: methods x (dataset, metric) cells.

    ``cells`` maps ``(row, column)`` to a :class:`Cell`; missing entries
    render as the paper's "-" / "OOM" markers via ``missing``.
    """

    name: str
    rows: List[str]
    columns: List[str]
    cells: Dict[Tuple[str, str], Cell] = field(default_factory=dict)
    missing: Dict[Tuple[str, str], str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def set(self, row: str, column: str, values: Sequence[float]) -> None:
        """Record a cell from raw per-seed values."""
        self.cells[(row, column)] = Cell.from_values(values)

    def mark(self, row: str, column: str, marker: str) -> None:
        """Record a non-numeric cell (e.g. ``"OOM"`` or ``"-"``)."""
        self.missing[(row, column)] = marker

    def get(self, row: str, column: str) -> Optional[Cell]:
        return self.cells.get((row, column))

    def best_row(self, column: str, exclude: Sequence[str] = ()) -> Optional[str]:
        """Row with the highest mean in ``column`` (ignoring ``exclude``)."""
        candidates = [
            (cell.mean, row)
            for (row, col), cell in self.cells.items()
            if col == column and row not in exclude
        ]
        if not candidates:
            return None
        return max(candidates)[1]

    def note_best(self) -> None:
        """Append a ``best on <column>`` note for every column with cells."""
        for column in self.columns:
            best = self.best_row(column)
            if best is not None:
                self.notes.append(f"best on {column}: {best}")

    def to_text(self) -> str:
        """Render as an aligned plain-text table (the bench output format)."""
        header = ["method"] + list(self.columns)
        body: List[List[str]] = []
        for row in self.rows:
            line = [row]
            for column in self.columns:
                cell = self.cells.get((row, column))
                if cell is not None:
                    line.append(str(cell))
                else:
                    line.append(self.missing.get((row, column), ""))
            body.append(line)
        widths = [
            max(len(line[i]) for line in [header] + body) for i in range(len(header))
        ]
        def fmt(line: List[str]) -> str:
            return "  ".join(part.ljust(width) for part, width in zip(line, widths))

        separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [self.name, separator, fmt(header), separator]
        out.extend(fmt(line) for line in body)
        out.append(separator)
        out.extend(f"note: {note}" for note in self.notes)
        return "\n".join(out)


@dataclass
class SeriesResult:
    """A figure's data series: named x values mapped to y arrays.

    Used by the Figure 4/5/6 runners, which produce curves rather than
    tables.
    """

    name: str
    x_label: str
    y_label: str
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_point(self, series_name: str, x: float, y: float) -> None:
        self.series.setdefault(series_name, {})[x] = y

    def to_text(self) -> str:
        out = [self.name, f"x = {self.x_label}, y = {self.y_label}"]
        for series_name, points in self.series.items():
            ordered = sorted(points.items())
            rendered = ", ".join(f"{x:g}: {y:.3f}" for x, y in ordered)
            out.append(f"  {series_name}: {rendered}")
        out.extend(f"note: {note}" for note in self.notes)
        return "\n".join(out)
