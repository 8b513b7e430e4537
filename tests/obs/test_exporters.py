"""Exporter determinism and EventTrace-derived ordering invariants."""

import json

import pytest

from repro.obs import (
    export_chrome_trace,
    export_jsonl,
    metrics_to_jsonl,
    trace_to_chrome_events,
)
from repro.obs.export import FORMAT_NAME, FORMAT_VERSION
from repro.tools.obs_report import run_instrumented

pytestmark = pytest.mark.obs


def instrumented_ca():
    return run_instrumented("ca", seed=2008)


class TestDeterminism:
    def test_jsonl_byte_identical_across_runs(self):
        a = export_jsonl(instrumented_ca().obs)
        b = export_jsonl(instrumented_ca().obs)
        assert a.encode() == b.encode()

    def test_chrome_trace_byte_identical_across_runs(self):
        p1, p2 = instrumented_ca(), instrumented_ca()
        a = export_chrome_trace(p1.obs, p1.machine.trace)
        b = export_chrome_trace(p2.obs, p2.machine.trace)
        assert a.encode() == b.encode()

    def test_seed_invariant_but_app_sensitive(self):
        # Virtual timings come from the timing profile, not the seed:
        # changing the seed changes key material but not the observable
        # span/metric stream, while changing the workload does.
        a = export_jsonl(run_instrumented("ca", seed=2008).obs)
        b = export_jsonl(run_instrumented("ca", seed=2009).obs)
        c = export_jsonl(run_instrumented("rootkit", seed=2008).obs)
        assert a == b
        assert a != c


class TestJSONLFormat:
    def test_every_line_is_json_and_meta_leads(self):
        lines = export_jsonl(instrumented_ca().obs).splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0] == {
            "format": FORMAT_NAME, "type": "meta", "version": FORMAT_VERSION}
        kinds = {r["type"] for r in records}
        assert kinds == {"meta", "span", "event", "metric"}

    def test_span_records_reference_valid_parents(self):
        records = [json.loads(line) for line in
                   export_jsonl(instrumented_ca().obs).splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        ids = {s["id"] for s in spans}
        for span in spans:
            assert span["end_ms"] >= span["start_ms"]
            assert span["parent"] is None or span["parent"] in ids

    def test_metrics_only_export(self):
        hub = instrumented_ca().obs
        lines = metrics_to_jsonl(hub.registry).splitlines()
        assert lines
        assert all(json.loads(line)["type"] == "metric" for line in lines)


class TestChromeTraceFormat:
    def test_document_shape(self):
        platform = instrumented_ca()
        doc = json.loads(export_chrome_trace(platform.obs, platform.machine.trace))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "id" in event["args"]

    def test_duration_events_sorted_by_start(self):
        platform = instrumented_ca()
        doc = json.loads(export_chrome_trace(platform.obs))
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ts == sorted(ts)


class TestEventTraceBridge:
    """`EventTrace`-derived instants must preserve the trace's total order."""

    def test_seq_reconstructs_original_order(self):
        platform = instrumented_ca()
        trace = platform.machine.trace
        derived = trace_to_chrome_events(trace)
        assert len(derived) == len(trace)
        seqs = [e["args"]["seq"] for e in derived]
        assert seqs == list(range(len(trace)))
        # Sorting by (ts, seq) — what a trace viewer does — is a no-op:
        # ties on virtual timestamp never reorder events.
        assert sorted(derived, key=lambda e: (e["ts"], e["args"]["seq"])) == derived

    def test_timestamps_monotone_nondecreasing(self):
        trace = instrumented_ca().machine.trace
        ts = [e["ts"] for e in trace_to_chrome_events(trace)]
        assert ts == sorted(ts)

    def test_protocol_ordering_survives_derivation(self):
        """The PCR-17 ordering invariant (reset before SKINIT, sentinel
        extend before OS resume) is visible in the derived events."""
        platform = run_instrumented("rootkit", seed=2008)  # single session
        trace = platform.machine.trace
        assert trace.ordered_before("dynamic_pcr_reset", "skinit")
        derived = trace_to_chrome_events(trace)
        names = [e["name"] for e in derived]
        assert names.index("tpm/dynamic_pcr_reset") < names.index("cpu/skinit")
        last_extend = max(i for i, n in enumerate(names) if n == "tpm/pcr_extend")
        last_resume = max(i for i, n in enumerate(names) if n == "flicker/os-resumed")
        assert last_extend < last_resume


class TestMachineTracks:
    """Spans/events carrying a ``machine`` attribute render on their own
    Chrome track (pid); without machine labels the legacy single-track
    bytes are unchanged."""

    def test_default_output_has_single_track(self):
        doc = json.loads(export_chrome_trace(instrumented_ca().obs))
        assert {e["pid"] for e in doc["traceEvents"]} == {1}

    def test_machine_attribute_maps_to_distinct_pid(self):
        from repro.obs.spans import ObservabilityHub
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        hub = ObservabilityHub(clock, machine="client-03")
        with hub.span("session", category="session"):
            clock.advance(1.0)
        doc = json.loads(export_chrome_trace(hub))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["args"]["machine"] == "client-03"
        assert spans[0]["pid"] != 1
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert "flicker-virtual-platform/client-03" in names

    def test_fleet_export_gives_one_track_per_machine(self):
        from repro.obs import export_fleet_chrome_trace
        from repro.obs.spans import ObservabilityHub
        from repro.sim.clock import VirtualClock

        hubs = {}
        for machine in ("client-00", "client-01", "server"):
            clock = VirtualClock()
            hub = ObservabilityHub(clock, machine=machine)
            with hub.span("work", category="session"):
                clock.advance(2.0)
            hubs[machine] = hub
        doc = json.loads(export_fleet_chrome_trace(hubs))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 3
        # pid assignment is sorted-label order: stable across runs.
        by_machine = {e["args"]["machine"]: e["pid"] for e in spans}
        assert by_machine["client-00"] < by_machine["client-01"] < by_machine["server"]

    def test_pid_mapping_ignores_event_order(self):
        from repro.obs.export import _machine_pids

        assert _machine_pids({"b", "a", None}) == _machine_pids({None, "a", "b"})
        assert _machine_pids({"a", "b"}) == {None: 1, "a": 2, "b": 3}
