"""Shared report structures for the three user-role workflows.

The auditor, job-owner and end-user scenarios all produce tabular findings
(one row per job / per scoring-function variant / per marketplace).  The
small report classes here keep those findings structured (for tests and
benchmarks) while also rendering to aligned text tables (what the demo would
show on screen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["ReportTable", "format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as an aligned, pipe-separated text table."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


@dataclass
class ReportTable:
    """A titled table of findings with named columns."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table {self.title!r} has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """Values of one named column, in row order."""
        if name not in self.headers:
            raise ValueError(f"table {self.title!r} has no column {name!r}")
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def to_records(self) -> List[Dict[str, object]]:
        """Rows as dicts keyed by column name."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def render(self) -> str:
        """Full text rendering: title, table and notes."""
        parts = [self.title, "=" * len(self.title), format_table(self.headers, self.rows)]
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)

    def __len__(self) -> int:
        return len(self.rows)
