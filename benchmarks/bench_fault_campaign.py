"""Fault-campaign smoke benchmark: 50 seeded plans x 4 applications.

The same sweep is runnable standalone as
``python -m repro.faults.campaign --smoke``; here the unified runner
pins the campaign's outcome counts, and the paper-level invariant (zero
``secret-leaked`` outcomes) is asserted on every execution.
"""

from benchmarks.conftest import print_table
from repro.bench import register
from repro.crypto.sha1 import sha1
from repro.faults import FaultCampaign
from repro.faults.campaign import APPS, OUTCOMES, report_json

SEEDS = range(50)


def run_campaign():
    return FaultCampaign(seeds=SEEDS, apps=APPS).run()


def run_bench(seeds=50, workers=1):
    """Registered entry point: outcome distribution plus a digest of the
    full canonical report — one drifted byte anywhere in the campaign
    flips ``report_sha1``, making this a whole-subsystem regression gate."""
    report = FaultCampaign(seeds=range(seeds), apps=APPS,
                           workers=workers).run()
    summary = report["summary"]
    return {
        "virtual": {
            "runs": summary["runs"],
            "outcomes": summary["outcomes"],
            "secret_leaked": summary["secret_leaked"],
            "report_sha1": sha1(report_json(report).encode("ascii")).hex(),
        },
    }


register(
    "fault_campaign", run_bench,
    params={"seeds": 50, "workers": 1},
    quick_params={"seeds": 12, "workers": 1},
    description="Fault campaign: outcome distribution + canonical-report "
                "digest over seeded adversarial sweeps",
)


def test_fault_campaign_smoke():
    report = run_campaign()

    summary = report["summary"]
    assert summary["runs"] == len(SEEDS) * len(APPS)
    assert summary["secret_leaked"] == 0
    # Determinism spot-check: the serialized report is reproducible.
    assert report_json(report) == report_json(run_campaign())

    by_app = {app: {o: 0 for o in OUTCOMES} for app in APPS}
    for result in report["results"]:
        by_app[result["app"]][result["outcome"]] += 1
    print_table(
        "Fault campaign outcomes (50 seeds x 4 apps)",
        ("app", *OUTCOMES),
        [(app, *(by_app[app][o] for o in OUTCOMES)) for app in APPS],
    )
