"""Sharded group execution: a big fleet partitioned into machine groups
runs each group as its own cell and merges back byte-identically at any
worker count — the ISSUE-8 scale path for the 10,000-machine sweep."""

import json

import pytest

from repro.apps.distributed import fleet_cell, merge_fleet_reports, split_fleet_group
from repro.dist.sweep import dist_cell, merge_dist_cells, split_dist_group
from repro.sim.parallel import run_sharded

pytestmark = pytest.mark.slow


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def sweep_fleet(configs, workers=1, shard_size=None):
    return run_sharded(fleet_cell, configs, merge_fleet_reports,
                       split=split_fleet_group, shard_size=shard_size,
                       workers=workers)


def sweep_dist(configs, workers=1, shard_size=None):
    return run_sharded(dist_cell, configs, merge_dist_cells,
                       split=split_dist_group, shard_size=shard_size,
                       workers=workers)


FLEET_CONFIG = dict(machines=10, units_per_client=1, slice_ms=2000.0,
                    range_per_unit=400, seed=2008)


class TestShardedFleetSweep:
    def test_worker_count_does_not_change_bytes(self):
        serial = sweep_fleet([FLEET_CONFIG], workers=1, shard_size=4)
        parallel = sweep_fleet([FLEET_CONFIG], workers=2, shard_size=4)
        assert canonical(serial) == canonical(parallel)

    def test_sharded_report_shape(self):
        [report] = sweep_fleet([FLEET_CONFIG], workers=1, shard_size=4)
        assert report["shards"] == 3  # 4 + 4 + 2
        assert report["fleet_size"] == 10
        assert report["units_accepted"] == 10
        assert report["units_rejected"] == 0
        assert [m["machine_id"] for m in report["per_machine"]] == [
            f"client-{i:02d}" for i in range(10)
        ]

    def test_shard_size_covering_fleet_is_unsharded(self):
        """A shard size >= the fleet leaves the run whole: no group
        split, no ``shards`` key, bytes identical to a plain sweep."""
        [whole] = sweep_fleet([FLEET_CONFIG], workers=1)
        [covered] = sweep_fleet([FLEET_CONFIG], workers=1, shard_size=64)
        assert "shards" not in covered
        assert canonical(whole) == canonical(covered)

    def test_global_client_prefix_spans_groups(self):
        """clients=6 with shard_size=4 means groups work 4, 2, 0 active
        clients — participation is a *global* machine prefix."""
        config = {**FLEET_CONFIG, "clients": 6}
        [report] = sweep_fleet([config], workers=1, shard_size=4)
        assert report["units_accepted"] == 6
        active = [m["machine_id"] for m in report["per_machine"]
                  if m["sessions"] > 0]
        assert active == [f"client-{i:02d}" for i in range(6)]

    def test_merge_recomputes_rates_from_totals(self):
        groups = [
            {"fleet_size": 2, "units_issued": 2, "units_accepted": 2,
             "units_rejected": 0, "makespan_ms": 1000.0, "total_sessions": 4,
             "total_busy_ms": 800.0, "useful_ms": 400.0, "network_bytes": 10,
             "network_messages": 4, "per_machine": [{"machine_id": "client-00"}],
             "efficiency": 0.5, "sessions_per_virtual_second": 4.0},
            {"fleet_size": 1, "units_issued": 1, "units_accepted": 1,
             "units_rejected": 0, "makespan_ms": 2000.0, "total_sessions": 2,
             "total_busy_ms": 200.0, "useful_ms": 100.0, "network_bytes": 5,
             "network_messages": 2, "per_machine": [{"machine_id": "client-02"}],
             "efficiency": 0.5, "sessions_per_virtual_second": 1.0},
        ]
        merged = merge_fleet_reports(groups)
        assert merged["fleet_size"] == 3
        assert merged["makespan_ms"] == 2000.0  # slowest group
        assert merged["total_sessions"] == 6
        assert merged["efficiency"] == 0.5
        # 6 sessions / 2 virtual seconds, recomputed — not an average.
        assert merged["sessions_per_virtual_second"] == 3.0
        assert merged["shards"] == 2

    def test_single_group_merge_is_identity(self):
        """A config that shards into one group passes through unmerged."""
        [whole] = sweep_fleet([FLEET_CONFIG], workers=1)
        [single] = sweep_fleet([FLEET_CONFIG], workers=1, shard_size=10)
        assert single == whole


class TestShardedDistSweep:
    def test_worker_count_does_not_change_bytes(self):
        config = dict(machines=6, units=12, seed=2008)
        serial = sweep_dist([config], workers=1, shard_size=2)
        parallel = sweep_dist([config], workers=2, shard_size=2)
        assert canonical(serial) == canonical(parallel)

    def test_unit_split_is_exact_and_proportional(self):
        config = dict(machines=5, units=11, seed=2008)
        [cell] = sweep_dist([config], workers=1, shard_size=2)
        # 11 units over groups of 2+2+1 machines: quotas 4/5, 4/5, 1/5
        # by cumulative differencing — every unit lands exactly once.
        assert cell["total_units"] == 11
        assert cell["units_validated"] == 11
        assert cell["fleet_size"] == 5
        assert cell["group_db_sha1"] and len(cell["db_sha1"]) == 40
