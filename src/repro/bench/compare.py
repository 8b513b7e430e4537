"""Baseline comparison — the CI perf-regression gate.

Two documents compare in three tiers:

* ``params`` must match exactly — otherwise the two runs measured
  different workloads and any comparison is meaningless (this catches
  quick-vs-full mixups before they produce confusing diffs).
* ``virtual`` must match exactly, leaf by leaf.  Virtual-time results
  are deterministic by construction; *any* drift is a behavior change,
  not noise.
* ``wall`` leaves named ``*_seconds`` and present in both documents must
  not regress past ``fail_over_pct`` percent *plus* an absolute slack of
  :data:`WALL_SLACK_SECONDS` — sub-second benchmarks jitter far beyond
  any percentage on shared CI hosts, and the slack keeps the gate about
  real slowdowns rather than scheduler noise.  Other wall leaves (e.g.
  nanosecond guard prices) are informational and never gated.

>>> from repro.bench.compare import compare_results
>>> base = {"params": {"n": 2}, "virtual": {"ms": 10.0}, "wall": {"wall_seconds": 1.0}}
>>> cur = {"params": {"n": 2}, "virtual": {"ms": 10.0}, "wall": {"wall_seconds": 1.1}}
>>> compare_results(cur, base, fail_over_pct=20.0)
[]
>>> cur["virtual"]["ms"] = 11.0
>>> [f.kind for f in compare_results(cur, base, fail_over_pct=20.0)]
['virtual-drift']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Absolute headroom added on top of the percentage gate for wall
#: metrics: a run must be both ``fail_over_pct`` percent slower *and*
#: this many seconds slower before the gate fails.
WALL_SLACK_SECONDS = 1.0


@dataclass(frozen=True)
class CompareFinding:
    """One comparison failure, renderable as a single report line."""

    #: ``params-mismatch`` | ``virtual-drift`` | ``wall-regression`` |
    #: ``missing-baseline`` | ``orphaned-baseline`` | ``schema-mismatch``
    kind: str
    #: Dotted path of the offending leaf (empty for document-level kinds).
    path: str
    message: str

    def __str__(self) -> str:
        where = f" at {self.path}" if self.path else ""
        return f"[{self.kind}]{where}: {self.message}"


def strip_volatile(result: Dict) -> Dict:
    """The byte-deterministic portion of a result document.

    Drops the ``wall`` and ``meta`` sections — everything that may
    legitimately differ between two runs of the same benchmark at the
    same commit.  Determinism tests compare these stripped documents.
    """
    return {k: v for k, v in result.items() if k not in ("wall", "meta")}


def _leaves(value, path: str = "") -> List[Tuple[str, object]]:
    """Flatten nested dicts/lists to (dotted-path, leaf) pairs."""
    if isinstance(value, dict):
        out: List[Tuple[str, object]] = []
        for key in sorted(value):
            out.extend(_leaves(value[key], f"{path}.{key}" if path else str(key)))
        return out
    if isinstance(value, list):
        out = []
        for i, item in enumerate(value):
            out.extend(_leaves(item, f"{path}[{i}]"))
        return out
    return [(path, value)]


def compare_results(current: Dict, baseline: Dict,
                    fail_over_pct: float) -> List[CompareFinding]:
    """Gate ``current`` against ``baseline``; returns failures (empty = pass)."""
    findings: List[CompareFinding] = []

    cur_schema = current.get("schema")
    base_schema = baseline.get("schema")
    if cur_schema != base_schema and (cur_schema or base_schema):
        findings.append(CompareFinding(
            "schema-mismatch", "",
            f"current schema {cur_schema!r} vs baseline {base_schema!r} "
            f"(regenerate the baseline)"))
        return findings

    if current.get("params") != baseline.get("params"):
        findings.append(CompareFinding(
            "params-mismatch", "",
            f"current params {current.get('params')!r} != baseline "
            f"{baseline.get('params')!r} — was the baseline generated in a "
            f"different mode (quick vs full)?"))
        return findings

    cur_virtual = dict(_leaves(current.get("virtual", {})))
    base_virtual = dict(_leaves(baseline.get("virtual", {})))
    for path in sorted(set(cur_virtual) | set(base_virtual)):
        if path not in cur_virtual:
            findings.append(CompareFinding(
                "virtual-drift", path, "metric disappeared from current run"))
        elif path not in base_virtual:
            findings.append(CompareFinding(
                "virtual-drift", path,
                "new metric absent from baseline (refresh the baseline)"))
        elif cur_virtual[path] != base_virtual[path]:
            findings.append(CompareFinding(
                "virtual-drift", path,
                f"{base_virtual[path]!r} -> {cur_virtual[path]!r} "
                f"(virtual metrics must match exactly)"))

    cur_wall = dict(_leaves(current.get("wall", {})))
    base_wall = dict(_leaves(baseline.get("wall", {})))
    for path in sorted(set(cur_wall) & set(base_wall)):
        if not path.split(".")[-1].endswith("_seconds"):
            continue  # informational wall metric, never gated
        cur_v, base_v = cur_wall[path], base_wall[path]
        if not _numeric(cur_v) or not _numeric(base_v):
            continue
        if base_v == 0:
            continue  # nothing to take a percentage of
        delta_pct = (cur_v - base_v) / abs(base_v) * 100.0
        delta_abs = cur_v - base_v
        if delta_pct > fail_over_pct and delta_abs > WALL_SLACK_SECONDS:
            findings.append(CompareFinding(
                "wall-regression", path,
                f"{base_v} -> {cur_v} (+{delta_pct:.1f}% > "
                f"{fail_over_pct:.0f}% gate and +{delta_abs:.2f}s > "
                f"{WALL_SLACK_SECONDS:.1f}s slack)"))
    return findings


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
