"""Work-distribution service under sustained heavy traffic.

The distribution headline numbers: aggregate session throughput
(sessions per virtual second), the validator's verify throughput, and
the redundancy overhead (resend rate) when a fleet mixing honest,
cheating, unreliable, and fault-injected clients grinds through a large
unit backlog.  Every cell also records ``db_sha1`` — the digest of the
byte-canonical job-database dump — so the baseline gate catches any
drift in the full decision history, not just the headline metrics.

Registered with the unified runner as ``dist``; the committed
``BENCH_dist.json`` baseline is produced by
``python -m repro.tools.bench --quick`` (see docs/BENCHMARKS.md for the
refresh procedure).  The sweep runs through
:func:`repro.sim.parallel.run_sharded` with the job cells of
:mod:`repro.dist.sweep`, so ``workers > 1`` shards the configs across
processes with byte-identical results.
"""

from benchmarks.conftest import print_table
from repro.bench import register
from repro.dist.sweep import dist_cell, merge_dist_cells
from repro.sim.parallel import run_sharded

#: The full sweep: a heavy mixed-adversary fleet plus a clean control.
FULL_CONFIGS = (
    dict(machines=64, units=600, seed=2008,
         behaviors="1:lazy,5:dropout,9:forge,13:flaky:90000,21:lazy",
         faults="3:tpm-transient,17:slb-bit-flip:64",
         timeout_ms=60_000.0),
    dict(machines=64, units=600, seed=2008),
)

#: Quick mode (committed baseline): same shape, smaller scale.
QUICK_CONFIGS = (
    dict(machines=8, units=32, seed=2008,
         behaviors="1:lazy,5:dropout",
         faults="3:tpm-transient",
         timeout_ms=60_000.0),
    dict(machines=8, units=32, seed=2008),
)


def run_bench(configs=FULL_CONFIGS, workers=1):
    """Registered entry point: the deterministic traffic sweep."""
    reports = run_sharded(dist_cell, configs, merge_dist_cells,
                          workers=workers)
    return {
        "virtual": {
            "sweep": {
                ("adversarial" if c.get("behaviors") else "clean"): report
                for c, report in zip(configs, reports)
            },
        },
    }


register(
    "dist", run_bench,
    params={"configs": FULL_CONFIGS, "workers": 1},
    quick_params={"configs": QUICK_CONFIGS, "workers": 1},
    description="Work distribution under heavy traffic: sessions/vsec, "
                "verify throughput, resend rate (quorum over attested "
                "results)",
)


def test_dist_heavy_traffic():
    results = run_bench(configs=FULL_CONFIGS)["virtual"]["sweep"]
    print_table(
        "Work distribution: 64 machines, 600 units",
        ["Fleet", "Validated", "Assignments", "Resend rate",
         "Sessions/vsec", "Verify/vsec", "Max queue"],
        [
            (name,
             f"{cell['units_validated']}/{cell['total_units']}",
             cell["assignments"],
             f"{cell['resend_rate']:.4f}",
             f"{cell['sessions_per_virtual_second']:.3f}",
             f"{cell['verify_throughput_per_vsec']:.1f}",
             cell["max_verify_queue_depth"])
            for name, cell in results.items()
        ],
    )

    clean, adversarial = results["clean"], results["adversarial"]
    # Every unit resolves in both fleets; the clean fleet needs no
    # redundancy beyond reputation's spot checks.
    assert clean["units_validated"] == clean["total_units"]
    assert adversarial["units_validated"] == adversarial["total_units"]
    assert clean["rejected_attestation"] == 0
    # Forged results are rejected by attestation verification, never
    # reaching quorum; the adversarial fleet pays for it in resends.
    assert adversarial["rejected_attestation"] > 0
    assert adversarial["resend_rate"] > clean["resend_rate"]
    # The dedicated validator keeps verify throughput orders of
    # magnitude above the fleet's session rate (it never gates dispatch).
    assert adversarial["verify_throughput_per_vsec"] > 100.0
