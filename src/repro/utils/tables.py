"""Plain-text table rendering for experiment harnesses.

The benchmark scripts print the same rows the paper's tables report, side by
side with the paper's published numbers.  This keeps the comparison honest
and greppable from the bench logs.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str | None = None,
) -> str:
    """Render a fixed-width table with a title line and optional footnote."""
    cells = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append(_padded(header, widths))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(_padded(row, widths))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _padded(cells: Sequence[str], widths: list[int]) -> str:
    """One row, each column padded to its width; no trailing spaces."""
    return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()


def _fmt(cell: object) -> str:
    if cell is None:
        return "NA"
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)


def paper_vs_measured(paper: object, measured: object) -> str:
    """Render a 'paper/measured' cell, e.g. ``52 / 49.2``."""
    return f"{_fmt(paper)} / {_fmt(measured)}"
