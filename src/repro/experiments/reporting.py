"""Plain-text rendering helpers for experiment output.

The experiment drivers (:mod:`repro.experiments.table1`, the figure
modules, the CLI commands) return structured data -- rows, curves, method
outcomes -- and deliberately know nothing about presentation; these helpers
turn that data into aligned ASCII tables (for the console and for
EXPERIMENTS.md).

Keeping every formatting concern here means a driver's output can be
snapshot-tested as data, the CLI stays a thin ``print`` loop, and a future
surface (HTML report, service endpoint) only needs a new renderer, not a
change to any driver.  Everything in this module is pure string
manipulation: no I/O, no numpy beyond what the caller already converted,
no dependency on the rest of the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render an aligned ASCII table with a header rule."""
    rows = [list(map(str, row)) for row in rows]
    header = list(map(str, header))
    widths = [len(cell) for cell in header]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [render_row(header), "-+-".join("-" * width for width in widths)]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def format_series(x: Sequence[float], y: Sequence[float], x_label: str = "x", y_label: str = "y") -> str:
    """Render a two-column series as an aligned table (for figure data)."""
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    rows = [[f"{a:g}", f"{b:g}"] for a, b in zip(x, y)]
    return format_table([x_label, y_label], rows)


def ascii_sparkline(values: Sequence[float], width: int = 60) -> str:
    """A tiny one-line visualization of a series (used in example scripts)."""
    values = list(values)
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - low) / span * (len(blocks) - 1)))]
        for v in values
    )
