"""Baseline comparison — the gate on deterministic benchmark content.

Two documents compare in three tiers:

* ``schema`` must match — a document from another schema version is
  regenerated, not compared.
* ``params`` must match exactly — otherwise the two runs measured
  different workloads and any comparison is meaningless (this catches
  quick-vs-full mixups before they produce confusing diffs).
* ``virtual`` must match exactly, leaf by leaf.  Virtual-time results
  are deterministic by construction; *any* drift is a behavior change,
  not noise.

Wall time is not compared here: one host's seconds say nothing about
another's.  ``benchmarks/perf`` times the simulator in paired runs of
two commits on one host (see docs/BENCHMARKS.md).

>>> from repro.bench.compare import compare_results
>>> base = {"params": {"n": 2}, "virtual": {"ms": 10.0}}
>>> cur = {"params": {"n": 2}, "virtual": {"ms": 10.0}}
>>> compare_results(cur, base)
[]
>>> cur["virtual"]["ms"] = 11.0
>>> [f.kind for f in compare_results(cur, base)]
['virtual-drift']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CompareFinding:
    """One comparison failure, renderable as a single report line."""

    #: ``params-mismatch`` | ``virtual-drift`` | ``missing-baseline`` |
    #: ``orphaned-baseline`` | ``schema-mismatch``
    kind: str
    #: Dotted path of the offending leaf (empty for document-level kinds).
    path: str
    message: str

    def __str__(self) -> str:
        where = f" at {self.path}" if self.path else ""
        return f"[{self.kind}]{where}: {self.message}"


def strip_volatile(result: Dict) -> Dict:
    """The byte-deterministic portion of a result document.

    Drops the ``meta`` section — the only part that may legitimately
    differ between two runs of the same benchmark at the same commit.
    Determinism tests compare these stripped documents.
    """
    return {k: v for k, v in result.items() if k != "meta"}


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


def compare_results(current: Dict, baseline: Dict) -> List[CompareFinding]:
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
    return findings
