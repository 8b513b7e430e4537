"""Unified benchmark runner: ``python -m repro.tools.bench``.

Discovers every benchmark registered by ``benchmarks/bench_*.py`` (see
:mod:`repro.bench`), runs each with pinned parameters, and writes one
schema-versioned ``BENCH_<name>.json`` per benchmark.  With ``--compare``
it gates the fresh results against committed baselines and exits
non-zero on any difference in deterministic content — the CI bench job
runs exactly that.

Usage::

    python -m repro.tools.bench                      # full params, write results
    python -m repro.tools.bench --quick              # baseline-sized params
    python -m repro.tools.bench --list               # show registered benchmarks
    python -m repro.tools.bench --only fleet,fig6_modules
    python -m repro.tools.bench --quick --out-dir bench-results \\
        --compare .                                  # the CI bench gate

Gate semantics (see ``repro.bench.compare``): ``params`` and
``virtual`` metrics must match the baseline **exactly** — they are
deterministic simulation results, so any drift is a behavior change.
Without ``--only``, a baseline directory must also hold no
``BENCH_*.json`` whose benchmark is no longer registered (an
``orphaned-baseline``).  The runner prints how long each benchmark
took, but no wall time is recorded or compared; ``benchmarks/perf`` is
the wall-time gate.  Baselines are refreshed by running with
``--quick`` at the repository root and committing the rewritten
``BENCH_*.json`` files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench import (
    CompareFinding,
    all_benchmarks,
    compare_results,
    build_result,
    discover,
    get_benchmark,
    result_filename,
    result_json,
)


def repo_root() -> Path:
    """The checkout root: the directory holding the ``benchmarks`` package.

    Falls back to the current directory when the package is not importable
    (results are then written relative to where the runner was invoked).
    """
    try:
        import benchmarks

        return Path(benchmarks.__file__).resolve().parent.parent
    except ImportError:
        return Path.cwd()


def _load_baseline(baseline: Path, name: str) -> Optional[dict]:
    """Read ``BENCH_<name>.json`` under ``baseline`` (a directory, or a
    single file when comparing exactly one benchmark)."""
    import json

    path = baseline / result_filename(name) if baseline.is_dir() else baseline
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None, *,
         run_discovery: bool = True) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench",
        description="Run the registered benchmarks; write BENCH_<name>.json "
                    "results and optionally gate them against baselines.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="use the quick parameter sets (the mode the "
                             "committed baselines are generated with)")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list registered benchmarks and exit")
    parser.add_argument("--only", metavar="NAMES",
                        help="comma-separated subset of benchmarks to run")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="directory for BENCH_<name>.json results "
                             "(default: the repository root)")
    parser.add_argument("--no-write", action="store_true",
                        help="run and compare without writing result files")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="baseline directory (or single file) to gate "
                             "fresh results against")
    args = parser.parse_args(argv)

    if run_discovery:
        discover()

    if args.only:
        names = [n for n in args.only.split(",") if n]
        benches = [get_benchmark(n) for n in names]
    else:
        benches = all_benchmarks()

    if args.list_only:
        mode = "quick" if args.quick else "full"
        for bench in benches:
            print(f"{bench.name:24s} {bench.description}")
            print(f"{'':24s}   {mode} params: {bench.parameters(args.quick)}")
        return 0

    if not benches:
        print("no benchmarks registered (is the benchmarks package "
              "importable from here?)", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir) if args.out_dir else repo_root()
    baseline = Path(args.compare) if args.compare else None
    root = repo_root()

    failures: List[CompareFinding] = []
    for bench in benches:
        started = time.perf_counter()
        metrics = bench.run(quick=args.quick)
        wall_s = time.perf_counter() - started
        result = build_result(
            name=bench.name,
            params=bench.parameters(args.quick),
            metrics=metrics,
            quick=args.quick,
            repo_root=root,
        )
        print(f"ran {bench.name:24s} in {wall_s:7.2f}s wall")

        if not args.no_write:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / result_filename(bench.name)
            path.write_text(result_json(result), encoding="utf-8")
            print(f"    wrote {path}")

        if baseline is not None:
            base = _load_baseline(baseline, bench.name)
            if base is None:
                finding = CompareFinding(
                    "missing-baseline", "",
                    f"no {result_filename(bench.name)} under {baseline} — "
                    f"commit a baseline (see docs/BENCHMARKS.md)")
                failures.append(finding)
                print(f"    {finding}")
                continue
            findings = compare_results(result, base)
            for finding in findings:
                print(f"    {finding}")
            if findings:
                failures.extend(findings)
            else:
                print("    baseline OK (params and virtual exact)")

    if baseline is not None and baseline.is_dir() and not args.only:
        registered = {result_filename(bench.name) for bench in benches}
        for path in sorted(baseline.glob(result_filename("*"))):
            if path.name not in registered:
                finding = CompareFinding(
                    "orphaned-baseline", "",
                    f"{path.name} under {baseline} has no registered "
                    f"benchmark — delete it or restore its benchmark")
                failures.append(finding)
                print(f"    {finding}")

    if failures:
        print(f"\nBENCH GATE FAILED: {len(failures)} finding(s) across "
              f"{len(benches)} benchmark(s)", file=sys.stderr)
        return 1
    if baseline is not None:
        print(f"\nbench gate passed: {len(benches)} benchmark(s) vs "
              f"{baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
