"""One workload in one fresh process: the benchmark's child entry point.

``python3 benchmarks/perf/worker.py SPEC_JSON`` imports the simulator,
runs the workload's set-up, then (unless the spec says ``setup_only``)
runs rounds until the time budget is spent, and prints one JSON result
line.  :mod:`benchmarks.perf.run` starts it; nothing else should need to.

The spec keys are ``workload``, ``seed`` (``null`` = the workload's
default), ``seconds``, ``trace``, ``setup_only``, ``sizes`` (keyword
arguments for the workload; the tests pass tiny ones) and ``chrome``
(where a traced run writes its spans, or ``null``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]


def virtual_sha1(record: Any) -> str:
    """SHA-1 of the canonical JSON encoding of ``record``."""
    from repro.crypto.sha1 import sha1

    return sha1(json.dumps(record, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")).hex()


def layer_counters(rounds) -> Dict[str, float]:
    """Per-layer counts summed (``*_max``: maximised) over the rounds,
    plus the share of dist assignments that ended in a validated unit."""
    from benchmarks.perf.workloads import COUNTERS

    totals: Dict[str, float] = {}
    for key in COUNTERS:
        values = [r.counters[key] for r in rounds]
        totals[key] = max(values) if key.endswith("_max") else sum(values)
    assignments = totals["dist.assignments"]
    totals["dist.useful_ratio"] = (totals["dist.validated"] / assignments
                                   if assignments else 0.0)
    return totals


#: Peak memory is read after set-up and this many rounds: a fixed amount
#: of work, so the figure does not grow with the number of rounds a
#: faster program fits into the time budget.
RSS_ROUNDS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, seconds: float, tracer=None):
    """Run rounds until their wall times add up to ``seconds`` (at least
    one round).  The workload's untimed work between rounds is left out
    of the round times and of the trace.  Returns the rounds, each
    round's wall seconds and the peak RSS in MB after :data:`RSS_ROUNDS`
    rounds (after the last, if there were fewer)."""
    if tracer is not None:
        tracer.reset()
    rounds: List = []
    round_s: List[float] = []
    rss_mb = None
    while True:
        if rounds:
            with tracer.excluded() if tracer is not None else nullcontext():
                workload.between_rounds()
        begin = time.perf_counter()
        rounds.append(workload.run_round(len(rounds)))
        round_s.append(time.perf_counter() - begin)
        if len(rounds) == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
        if sum(round_s) >= seconds:
            return rounds, round_s, rss_mb or peak_rss_mb()


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    # Set-up is timed from here: importing the simulator, building the
    # workload and its set-up, up to the first timed op.
    start = time.perf_counter()
    from benchmarks.perf.trace import Tracer, percentile
    from benchmarks.perf.workloads import WORKLOADS

    tracer = Tracer() if spec["trace"] else None
    workload = WORKLOADS[spec["workload"]](seed=spec["seed"], ops=tracer,
                                           **spec.get("sizes", {}))
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
        setup_s = time.perf_counter() - start
        if spec["setup_only"]:
            return {"setup_s": setup_s}
        rounds, round_s, rss_mb = timed_rounds(workload, spec["seconds"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Throughput is the upper quartile across rounds: on a shared host,
    # other processes' load slows rounds by up to 2x and never speeds
    # one up, so the faster rounds are the closest to the program's own
    # speed; a whole-run mean would report the slowdowns.
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": bool(spec["trace"]),
        "rounds": len(rounds),
        "ops": len(latencies),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "sessions": sum(r.sessions for r in rounds),
        "timed_s": sum(round_s),
        "setup_s": setup_s,
        "sessions_per_wall_s": percentile(
            [r.sessions / s for r, s in zip(rounds, round_s)], 75),
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p95": percentile(latencies, 95),
        "peak_rss_mb": rss_mb,
        "virtual_sha1": virtual_sha1(rounds[0].virtual),
        "round_s": round_s,
    }
    if tracer is not None:
        record["layers"] = {**tracer.metrics(record["timed_s"]), **layer_counters(rounds)}
        if spec.get("chrome"):
            Path(spec["chrome"]).write_text(json.dumps(tracer.chrome_trace()))
    return record


def main(argv: List[str]) -> int:
    print(json.dumps(run(json.loads(argv[1]))), flush=True)
    return 0


if __name__ == "__main__":
    # Run as a script: import the benchmark package from the repository
    # root and the simulator from src/, not from this directory.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main(sys.argv))
