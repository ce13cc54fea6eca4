"""Paper-style text tables and series for benchmark output."""

from __future__ import annotations

from typing import Sequence


def format_table(title: str, rows: Sequence[dict],
                 columns: Sequence[str] | None = None) -> str:
    """Render dict rows as an aligned text table with a title banner."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines = [f"== {title} =="]
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def format_series(title: str, x_label: str, xs: Sequence,
                  series: dict[str, Sequence]) -> str:
    """Render figure-like data: one x column, one column per series."""
    rows = []
    for i, x in enumerate(xs):
        row = {x_label: x}
        for name, values in series.items():
            row[name] = values[i]
        rows.append(row)
    return format_table(title, rows, columns=[x_label, *series.keys()])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
