"""Plain-text table/figure rendering for experiment reports."""

from __future__ import annotations


def ratio(value, reference):
    """The paper's ``x.xx×`` ratio convention."""
    return value / reference


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if cell is None:
        return "-"
    return str(cell)


def format_table(headers, rows, title=None):
    """Render an aligned plain-text table."""
    table = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
