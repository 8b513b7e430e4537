"""The plain-text table every report tool prints."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """A ``## title`` heading over left-aligned, ``|``-separated columns
    sized to their widest cell, framed by ``-+-`` rules."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = [f"\n## {title}", sep]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(sep)
    return "\n".join(lines)
