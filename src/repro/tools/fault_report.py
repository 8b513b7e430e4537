"""Render a fault-campaign JSON report as tables:
``python -m repro.tools.fault_report report.json`` (or pipe the campaign's
stdout straight in with ``-``).

Summarizes outcome classes per app and lists the individual non-``ok``
cells with the faults that fired, so a failing seed can be picked out and
replayed (``python -m repro.faults.campaign --replay <seed> --app <app>``).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, Sequence

from repro.faults.campaign import APPS, OUTCOMES
from repro.tools.tables import format_table


def _fired_summary(record: Dict) -> str:
    parts = []
    for fault in record["faults_fired"]:
        op = fault.get("op", "")
        parts.append(fault["kind"] + (f"({op})" if op else "")
                     + f"@s{fault['session']}")
    return " ".join(parts) or "-"


def format_report(report: Dict) -> str:
    """The human-readable rendering of a campaign report."""
    results = report["results"]
    apps = report["campaign"].get("apps", list(APPS))
    by_app = {
        app: {outcome: 0 for outcome in OUTCOMES} for app in apps
    }
    for record in results:
        by_app[record["app"]][record["outcome"]] += 1
    sections = [
        format_table(
            "Outcome classes per application",
            ("app", *OUTCOMES),
            [(app, *(by_app[app][o] for o in OUTCOMES)) for app in apps],
        )
    ]
    notable = [r for r in results if r["outcome"] != "ok"]
    if notable:
        sections.append(
            format_table(
                "Non-ok cells (replay with --replay <seed> --app <app>)",
                ("seed", "app", "outcome", "retries", "faults fired"),
                [
                    (r["seed"], r["app"], r["outcome"], r["retries"],
                     _fired_summary(r))
                    for r in notable
                ],
            )
        )
    leaked = report["summary"]["secret_leaked"]
    verdict = (
        "secret-leaked = 0 — the paper's isolation guarantees held"
        if leaked == 0
        else f"SECRET LEAKS: {leaked} — simulation invariant violated"
    )
    sections.append(f"\n{report['summary']['runs']} runs; {verdict}\n")
    return "\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        if argv[0] == "-":
            report = json.load(sys.stdin)
        else:
            with open(argv[0], "r", encoding="utf-8") as handle:
                report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report {argv[0]!r}: {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
