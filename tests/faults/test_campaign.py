"""Campaign runner: outcome classification, report determinism, replay."""

import json

import pytest

from repro.faults import FaultCampaign, FaultPlan, FaultSpec, run_scenario
from repro.faults.campaign import OUTCOMES, main, replay, report_json
from repro.faults.plan import ANY_SESSION
from repro.tools.fault_report import format_report

pytestmark = pytest.mark.faults


def plan_of(*specs):
    return FaultPlan(seed=0, specs=tuple(specs))


class TestRunScenario:
    def test_fault_free_plan_is_ok(self):
        record = run_scenario("rootkit", plan_of(
            FaultSpec(kind="dma-probe", session=99)))  # never reached
        assert record["outcome"] == "ok"
        assert record["faults_fired"] == []
        assert record["leaks"] == []

    def test_pal_exception_classifies_as_session_aborted(self):
        record = run_scenario("rootkit", plan_of(
            FaultSpec(kind="pal-exception", session=0)))
        assert record["outcome"] == "session-aborted"
        assert len(record["faults_fired"]) == 1

    def test_transient_quote_fault_classifies_as_retried_ok(self):
        record = run_scenario("rootkit", plan_of(
            FaultSpec(kind="tpm-transient", session=ANY_SESSION, op="quote",
                      count=1)))
        assert record["outcome"] == "retried-ok"
        assert record["retries"] >= 1

    def test_bit_flip_is_detected_not_leaked(self):
        record = run_scenario("rootkit", plan_of(
            FaultSpec(kind="slb-bit-flip", session=0, magnitude=5)))
        assert record["outcome"] in ("attestation-rejected", "session-aborted")
        assert record["leaks"] == []

    def test_probes_are_counted_as_blocked(self):
        record = run_scenario("rootkit", plan_of(
            FaultSpec(kind="dma-probe", session=0),
            FaultSpec(kind="debug-probe", session=0)))
        assert record["probes_blocked"] == 2
        assert record["outcome"] != "secret-leaked"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("minesweeper", plan_of(
                FaultSpec(kind="pal-exception")))

    def test_registry_folds_outcome_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run_scenario("rootkit", plan_of(
            FaultSpec(kind="tpm-transient", session=ANY_SESSION, op="quote",
                      count=1)), registry=registry)
        run_scenario("rootkit", plan_of(
            FaultSpec(kind="dma-probe", session=0)), registry=registry)
        counters = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in registry.snapshot() if s["kind"] == "counter"
        }
        outcomes = ("app", "rootkit"), ("outcome", "retried-ok")
        assert counters[("campaign_outcomes_total", outcomes)] == 1
        assert counters[(
            "campaign_faults_fired_total", (("kind", "tpm-transient"),))] == 1
        assert counters[(
            "campaign_probes_blocked_total", (("app", "rootkit"),))] == 1
        assert counters[(
            "campaign_retries_total", (("app", "rootkit"),))] >= 1


# Full campaign sweeps: skipped by the default CI job (-m "not slow"),
# run in full by the nightly workflow.
@pytest.mark.slow
class TestCampaignReport:
    def run_small(self):
        return FaultCampaign(seeds=range(3), apps=("rootkit", "ssh")).run()

    def test_report_json_is_byte_identical_across_runs(self):
        assert report_json(self.run_small()) == report_json(self.run_small())

    def test_summary_counts_match_results(self):
        report = self.run_small()
        assert report["summary"]["runs"] == len(report["results"]) == 6
        assert sum(report["summary"]["outcomes"].values()) == 6
        assert set(report["summary"]["outcomes"]) == set(OUTCOMES)

    def test_no_secret_leaks(self):
        assert self.run_small()["summary"]["secret_leaked"] == 0

    def test_report_is_json_round_trippable(self):
        report = self.run_small()
        assert json.loads(report_json(report)) == report

    def test_formatter_renders_report(self):
        text = format_report(self.run_small())
        assert "Outcome classes per application" in text
        assert "secret-leaked = 0" in text


class TestReplay:
    def test_replay_reproduces_campaign_record(self):
        campaign = FaultCampaign(seeds=[2], apps=("rootkit",))
        (record,) = campaign.run()["results"]
        replayed = replay(2, "rootkit")
        trace = replayed.pop("fault_trace")
        assert replayed == record
        # Every fired fault shows up in the replayed trace.
        assert len(trace) == len(record["faults_fired"])
        for event in trace:
            assert event["kind"] in {f["kind"] for f in record["faults_fired"]}


class TestCLI:
    def test_main_writes_deterministic_report(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["--seeds", "2", "--apps", "rootkit", "--out"]
        assert main(argv + [str(out_a)]) == 0
        assert main(argv + [str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["summary"]["runs"] == 2

    def test_main_replay_prints_trace(self, capsys):
        assert main(["--replay", "1", "--app", "rootkit"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 1
        assert "fault_trace" in record
