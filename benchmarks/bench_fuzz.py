"""Fuzzer smoke benchmark: a bounded coverage-guided campaign plus a
full corpus replay.

The same workload is runnable standalone as
``python -m repro.tools.fuzz --smoke``; here the unified runner pins the
standing invariants: the campaign finds zero surviving counterexamples
and every committed corpus entry replays with its recorded verdict.

Coverage metrics (edge counts, the report digest) depend on the Python
version's tracing backend (``sys.monitoring`` on 3.12+ vs
``sys.settrace``), so they are not recorded — only version-stable facts
(execution totals, the zero-counterexample invariant, corpus replay
verdicts) sit in the exact-gated ``virtual`` section.
"""

from pathlib import Path

from benchmarks.conftest import print_table
from repro.bench import register
from repro.fuzz import FuzzCampaign, load_corpus

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "fuzz" / "corpus"


def run_bench(seed=2008, executions=120, workers=1):
    """Registered entry point: campaign invariants + corpus replay."""
    report = FuzzCampaign(seed=seed, executions=executions,
                          workers=workers).run()
    entries = load_corpus(CORPUS_DIR)
    replays = [(entry, entry.replay()[0]) for entry in entries]

    return {
        "virtual": {
            "executions": report["executions"]["total"],
            "counterexamples": report["summary"]["counterexamples"],
            "clean": report["summary"]["clean"],
            "corpus_entries": len(entries),
            "corpus_all_hold": all(holds for _, holds in replays),
        },
    }


register(
    "fuzz", run_bench,
    params={"seed": 2008, "executions": 400, "workers": 1},
    quick_params={"seed": 2008, "executions": 120, "workers": 1},
    description="Coverage-guided fuzzer: bounded campaign invariants "
                "(zero counterexamples, corpus replay)",
)


def test_fuzz_smoke():
    campaign = FuzzCampaign(seed=2008, executions=120)
    report = campaign.run()

    assert report["executions"]["total"] == 120
    assert report["summary"]["counterexamples"] == 0
    assert report["summary"]["clean"]
    # Determinism spot-check: the serialized report is reproducible.
    rerun = FuzzCampaign(seed=2008, executions=120).run()
    assert campaign.report_json(report) == campaign.report_json(rerun)

    by_target = report["executions"]["by_target"]
    print_table(
        "Fuzz campaign executions by target (seed 2008)",
        ("target", "executions"),
        sorted(by_target.items()),
    )
