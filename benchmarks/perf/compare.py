"""Compare a change's benchmark runs with its parent's.

Usage (from the repository root)::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` files of untraced runs of
``benchmarks/perf/run.py`` made alternately on the two commits (parent
first for one pair, change first for the next).  Files are read in name
order, and the i-th parent record of a workload pairs with its i-th
change record; every workload needs at least :data:`MIN_PAIRS` pairs.

For every (end-to-end metric, workload) pair this prints each side's
median and quartiles and a verdict, using the directions and bounds in
``BENCHMARK.json``:

``improved``
    the change wins at least 9/10 of the pairs (ties count for neither)
    and the medians differ by more than the parent's interquartile range;
``unresolved``
    either side's interquartile range, as a share of its median, is wider
    than the bound — unless every change run beats every parent run;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``no-worse``
    otherwise.

A workload whose failed-op fraction rose is flagged.  The exit status is
1 when anything regressed or a failed fraction rose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def load_runs(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run records in ``directory``, by workload, in file order."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        document = json.loads(path.read_text())
        for record in document.get("runs", ()):
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Dict[str, Any]:
    """The comparison of one metric on one workload over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worsening = sign * (p_med - c_med) / p_med
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        outcome = "improved"
    elif spread > bound:
        beats_all = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        outcome = "no-worse" if beats_all else "unresolved"
    elif worsening > bound:
        outcome = "regressed"
    else:
        outcome = "no-worse"
    return {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "wins": wins,
        "pairs": len(parent),
        "verdict": outcome,
    }


def failed_fraction(records: List[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent_dir: Path, change_dir: Path,
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric), plus a ``failed_frac`` row per
    workload whose failed fraction rose."""
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows: List[Dict[str, Any]] = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if len(parent) != len(change) or len(parent) < MIN_PAIRS:
            raise ValueError(
                f"{workload}: need {MIN_PAIRS} or more paired runs, got "
                f"{len(parent)} parent and {len(change)} change")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict([r[name] for r in parent], [r[name] for r in change],
                          metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, **row})
        before, after = failed_fraction(parent), failed_fraction(change)
        if after > before:
            rows.append({"workload": workload, "metric": "failed_frac",
                         "parent": [before] * 3, "change": [after] * 3,
                         "wins": 0, "pairs": len(parent),
                         "verdict": "failed-rise"})
    return rows


def _quartiles(q1: float, median: float, q3: float) -> str:
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<17} {'metric':<20} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34} {'wins':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<17} {row['metric']:<20} "
            f"{_quartiles(*row['parent']):>34} {_quartiles(*row['change']):>34} "
            f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(Path(args[0]), Path(args[1]), benchmark)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "failed-rise")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
