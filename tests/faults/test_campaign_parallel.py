"""Parallel campaign/sweep executors produce byte-identical reports."""

import json

import pytest

from repro.faults import FaultCampaign
from repro.faults.campaign import report_json
from repro.apps.distributed import fleet_cell, merge_fleet_reports
from repro.sim.parallel import run_sharded

pytestmark = pytest.mark.faults


class TestParallelCampaign:
    def run(self, workers):
        return FaultCampaign(seeds=range(3), apps=("rootkit", "ssh"),
                             workers=workers).run()

    def test_parallel_report_byte_identical_to_serial(self):
        assert report_json(self.run(workers=2)) == report_json(self.run(workers=1))

    def test_workers_knob_not_recorded_in_report(self):
        """The executor is an implementation detail: the report of a
        parallel run must not betray how it was produced."""
        assert "workers" not in report_json(self.run(workers=2))


class TestParallelFleetSweep:
    CONFIGS = [
        dict(machines=1, units_per_client=1, seed=2008),
        dict(machines=2, units_per_client=1, seed=2008),
        dict(machines=2, units_per_client=1, seed=7),
    ]

    def test_parallel_sweep_byte_identical_to_serial(self):
        serial = run_sharded(fleet_cell, self.CONFIGS, merge_fleet_reports,
                             workers=1)
        parallel = run_sharded(fleet_cell, self.CONFIGS, merge_fleet_reports,
                               workers=2)
        assert (json.dumps(parallel, sort_keys=True)
                == json.dumps(serial, sort_keys=True))

    def test_sweep_results_come_back_in_config_order(self):
        reports = run_sharded(fleet_cell, self.CONFIGS, merge_fleet_reports,
                              workers=2)
        assert [r["fleet_size"] for r in reports] == [1, 2, 2]
