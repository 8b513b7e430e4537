"""Multi-tenant vTPM sweep benchmark.

The same workload is runnable standalone as
``python -m repro.tools.vtpm``; here the unified runner pins the
standing invariants — every tenant attestation verifies, mid-run
migrations preserve tenant identity, and the report is byte-stable (the
canonical-JSON digest is exact-gated, so any determinism regression in
the multiplexer or the migration path fails the bench gate).
"""

import json

from benchmarks.conftest import print_table
from repro.bench import register
from repro.crypto.sha1 import sha1
from repro.tools.vtpm import run_vtpm_sweep


def _report_sha1(report: dict) -> str:
    canonical = json.dumps(report, sort_keys=True, separators=(",", ": "))
    return sha1(canonical.encode("utf-8")).hex()


def run_bench(machines=4, tenants=2, sessions=2, seed=2008, shard_size=None):
    """Registered entry point: sweep invariants + report digest."""
    config = dict(machines=machines, tenants=tenants, sessions=sessions,
                  seed=seed, migrate=True)
    report = run_vtpm_sweep(config, workers=1, shard_size=shard_size)

    aiks = {row["aik"] for row in report["per_tenant"]}
    return {
        "virtual": {
            "tenants": report["tenants"],
            "sessions": report["sessions"],
            "verified": report["verified"],
            "migrations": report["migrations"],
            "distinct_aiks": len(aiks),
            "report_sha1": _report_sha1(report),
        },
    }


register(
    "vtpm", run_bench,
    params={"machines": 8, "tenants": 2, "sessions": 2, "seed": 2008,
            "shard_size": 4},
    quick_params={"machines": 4, "tenants": 2, "sessions": 2, "seed": 2008},
    description="vTPM multiplexer: multi-tenant attested sessions with "
                "mid-run migration; exact-gated report digest",
)


def test_vtpm_sweep_smoke():
    config = dict(machines=4, tenants=2, sessions=2, seed=2008, migrate=True)
    report = run_vtpm_sweep(config)

    assert report["verified"] == report["sessions"]
    assert report["migrations"] == 2
    # Every tenant keeps a distinct AIK — including across migration.
    aiks = [row["aik"] for row in report["per_tenant"]]
    assert len(set(aiks)) == len(aiks)
    # Determinism spot-check: a rerun reproduces the bytes.
    assert _report_sha1(run_vtpm_sweep(dict(config))) == _report_sha1(report)

    print_table(
        "vTPM sweep by scenario (seed 2008)",
        ("scenario", "tenants"),
        sorted(
            (s, sum(1 for r in report["per_tenant"] if r["scenario"] == s))
            for s in {r["scenario"] for r in report["per_tenant"]}
        ),
    )
