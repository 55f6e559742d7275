"""Plain-text table formatting for the benchmark harness output."""

from __future__ import annotations

from typing import List, Mapping, Sequence

__all__ = ["format_table"]


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {col: len(col) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(str(row.get(col, ""))))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)
