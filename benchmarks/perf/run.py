"""Wall-time benchmark of the Flicker simulator.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME|all] [--seed S]
                                   [--trace [0|1]] [--out FILE]
    PYTHONPATH=src python -m benchmarks.perf ...      # the same CLI

Every workload runs in its own fresh worker process, one at a time, so
no process-global memo (the keygen memo above all) carries over from
one measurement to the next.  An untraced run reports the end-to-end
metrics; ``--trace`` makes a separate traced run for the per-layer ones
and an untraced run beside it for the tracing overhead.  Each workload
prints a table and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
when any output check failed.

Each workload measures for ``run_seconds`` from ``BENCHMARK.json``.
``--seconds`` is accepted only with that value, so two commits are
always compared over runs of the same length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
WORKER = Path(__file__).resolve().parent / "worker.py"

#: End-to-end metrics (untraced run) and their units.  Each run record
#: also carries ``op_ms_p95`` with its sample count ``ops``, reported
#: but not gated: on a shared host the tail follows other tenants' load
#: more than the program's (see README.md).
END_TO_END = (
    ("sessions_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
)

#: Set-up is timed in this many fresh processes per run (the measuring
#: process is one of them) and reported as their median.
SETUP_SAMPLES = 5

#: A worker still running this long after its time budget is killed.
WORKER_GRACE_S = 120.0


def run_seconds() -> float:
    """The time budget of one workload's measurement."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker to completion; returns its result record."""
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=spec["seconds"] + WORKER_GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{spec['workload']} worker failed "
                           f"(exit status {proc.returncode})")
    return json.loads(lines[-1])


def measure(workload: str, seed: Optional[int] = None, seconds: float = 10,
            trace: bool = False, sizes: Optional[Dict[str, Any]] = None,
            chrome: Optional[str] = None) -> Dict[str, Any]:
    """Measure one workload in fresh processes; returns its record.

    Untraced, the record carries every end-to-end metric (``setup_s`` is
    the median over :data:`SETUP_SAMPLES` processes).  Traced, it also
    carries ``layers`` — the per-layer metrics, including the overhead
    against an untraced run made just before it.  ``correct`` is false
    when an output check failed or tracing changed the virtual outputs.
    """
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": False, "setup_only": False, "sizes": sizes or {},
            "chrome": None}
    samples: List[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(_spawn({**spec, "setup_only": True})["setup_s"])
    record = _spawn(spec)
    samples.append(record["setup_s"])
    record["setup_s"] = statistics.median(samples)
    record["setup_samples"] = samples
    record["correct"] = record["failed"] == 0
    if trace:
        untraced = record
        record = _spawn({**spec, "trace": True, "chrome": chrome})
        record["layers"]["trace.overhead_frac"] = (
            1.0 - record["sessions_per_wall_s"] / untraced["sessions_per_wall_s"])
        record["untraced"] = untraced
        record["correct"] = (record["failed"] == 0 and untraced["correct"]
                             and record["virtual_sha1"] == untraced["virtual_sha1"])
    return record


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line JSON result for a record."""
    if record["trace"]:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(record["layers"].items())}
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def render(record: Dict[str, Any]) -> str:
    """Human-readable summary of a record."""
    lines = [
        f"# {record['workload']} (seed {record['seed']}, "
        f"{'traced' if record['trace'] else 'untraced'})",
        f"rounds {record['rounds']}, timed ops {record['ops']}, "
        f"attempted {record['attempted']}, failed {record['failed']}, "
        f"sessions {record['sessions']} in {record['timed_s']:.3f} s",
        f"virtual_sha1 {record['virtual_sha1']}",
    ]
    if record["trace"]:
        layers = record["layers"]
        lines.append(f"{'layer metric':<34} {'value':>14}")
        for name in sorted(layers, key=lambda n: (not n.endswith("self_s"), n)):
            lines.append(f"{name:<34} {layers[name]:>14.6g} {layer_unit(name)}")
    else:
        for name, unit in (*END_TO_END, ("op_ms_p95", "ms")):
            lines.append(f"{name:<22} {record[name]:>12.4f} {unit}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's simulator, never an installed copy.
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from benchmarks.perf.workloads import WORKLOADS

    budget = run_seconds()
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="Wall-time benchmark of the Flicker simulator.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=budget,
                        help=f"must be BENCHMARK.json's run_seconds ({budget})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="make the traced per-layer run")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write every record as JSON (and, traced, each "
                             "workload's spans as FILE.<workload>.chrome.json)")
    args = parser.parse_args(argv)
    if args.seconds != budget:
        parser.error(f"--seconds is fixed at BENCHMARK.json's run_seconds "
                     f"({budget}), so every run measures for the same time")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        chrome = (f"{args.out}.{name}.chrome.json"
                  if args.out and args.trace else None)
        record = measure(name, seed=args.seed, seconds=budget,
                         trace=bool(args.trace), chrome=chrome)
        records.append(record)
        print(render(record))
        print(json.dumps(result_line(record)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    # Import the benchmark package from the repository root and the
    # simulator from src/, never modules from this directory by bare name.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
