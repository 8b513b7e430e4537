"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure from the paper's §7.  The
numbers of interest are *virtual-time* measurements from the simulation:
each test prints its paper-vs-measured table (visible with ``pytest -s``)
and asserts the paper-level invariants.  The simulator's own wall time
is measured by ``benchmarks/perf``, not here.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import pytest

from repro.core import FlickerPlatform


@pytest.fixture
def platform() -> FlickerPlatform:
    """A freshly assembled platform per benchmark."""
    return FlickerPlatform(seed=1022)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render a paper-style comparison table to stdout (visible with
    ``pytest -s`` and in captured bench logs)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "+".join("-" * (w + 2) for w in widths)
    out: List[str] = ["", f"== {title} ==", line]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(line)
    for row in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    out.append(line)
    print("\n".join(out))
