"""The multi-machine fleet: construction, concurrent project runs,
per-machine fault addressing, and byte-level determinism."""

import json

import pytest

from repro.apps.distributed import FleetProject
from repro.core import FlickerFleet
from repro.core.fleet import SERVER_ID, derive_machine_seed
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import export_fleet_chrome_trace


def small_project(fleet, units_per_client=1):
    return FleetProject(
        fleet, n=15015 * 1_000_003,
        units_per_client=units_per_client,
        slice_ms=2000.0, range_per_unit=400,
    )


class TestFleetConstruction:
    def test_machines_have_distinct_identities(self):
        fleet = FlickerFleet(num_machines=3, seed=2008)
        ids = [h.machine_id for h in fleet.hosts]
        assert ids == ["client-00", "client-01", "client-02"]
        aiks = {h.platform.tqd.aik_certificate.aik_public.n for h in fleet.hosts}
        assert len(aiks) == 3  # per-machine TPM identities, not clones

    def test_machine_seeds_are_stable_in_index(self):
        """Growing the fleet never reseeds existing machines."""
        assert [derive_machine_seed(2008, i) for i in range(2)] == [
            derive_machine_seed(2008, i) for i in range(2)
        ]
        small = FlickerFleet(num_machines=2, seed=2008)
        large = FlickerFleet(num_machines=4, seed=2008)
        for a, b in zip(small.hosts, large.hosts):
            assert (a.platform.tqd.aik_certificate.aik_public.n
                    == b.platform.tqd.aik_certificate.aik_public.n)

    def test_host_lookup(self):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        assert fleet.host("client-01") is fleet.hosts[1]
        with pytest.raises(KeyError):
            fleet.host("client-99")

    def test_verifier_for_is_cached_per_machine(self):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        v = fleet.verifier_for("client-00")
        assert fleet.verifier_for("client-00") is v
        assert fleet.verifier_for("client-01") is not v


class TestFleetProject:
    @pytest.fixture(scope="class")
    def run(self):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        report = small_project(fleet, units_per_client=1).run()
        return fleet, report

    def test_every_unit_verifies(self, run):
        _, report = run
        assert report.units_issued == 2
        assert report.units_accepted == 2
        assert report.units_rejected == 0

    def test_machines_run_concurrently(self, run):
        """The fleet makespan is that of ONE client's workload (plus
        network + verification), not the serial sum."""
        fleet, report = run
        slowest = max(m.busy_ms for m in report.per_machine)
        assert report.makespan_ms < 1.1 * slowest
        assert report.total_busy_ms > 1.9 * slowest  # both actually worked

    def test_sessions_counted_per_machine(self, run):
        _, report = run
        for m in report.per_machine:
            assert m.sessions == 2  # init session + one work slice
        assert report.total_sessions == 4

    def test_clients_stay_busy(self, run):
        _, report = run
        for m in report.per_machine:
            assert m.utilization > 0.95

    def test_server_report_aggregates_links(self, run):
        fleet, report = run
        server = fleet.machine_reports()[-1]
        assert server.machine_id == SERVER_ID
        assert server.sessions == 0
        assert server.net_messages == report.network_messages
        assert server.net_bytes == report.network_bytes
        # Verification work was charged to the server host's clock.
        assert server.busy_ms > 0.0

    def test_network_carried_all_protocol_messages(self, run):
        _, report = run
        # Per client: assignment in, result out, stop in.
        assert report.network_messages == 3 * report.fleet_size


class TestFleetDeterminism:
    def test_same_seed_reports_byte_identical(self):
        def one_run():
            fleet = FlickerFleet(num_machines=2, seed=424242)
            report = small_project(fleet).run()
            return json.dumps(report.to_dict(), sort_keys=True)

        assert one_run() == one_run()

    def test_same_seed_traces_byte_identical(self):
        def one_trace():
            fleet = FlickerFleet(num_machines=2, seed=77, observability=True)
            small_project(fleet).run()
            return export_fleet_chrome_trace(fleet.hubs(), fleet.traces())

        first = one_trace()
        assert first == one_trace()
        doc = json.loads(first)
        # One pid per machine (plus the legacy default track's metadata).
        pids = {e["pid"] for e in doc["traceEvents"]}
        # default, client-00, client-01, server, server-verify
        assert len(pids) == 5

    def test_jitter_changes_timings_but_stays_deterministic(self):
        def one_run(jitter):
            fleet = FlickerFleet(num_machines=2, seed=9, jitter_ms=jitter)
            return small_project(fleet).run().to_dict()

        assert one_run(2.0) == one_run(2.0)
        assert one_run(2.0)["makespan_ms"] != one_run(0.0)["makespan_ms"]


class TestVerifyScheduling:
    """Attestation checks run on the fleet's dedicated verification
    clock, so the server dispatches a client's next unit the moment its
    result arrives instead of after the verify completes."""

    @staticmethod
    def one_run(units_per_client=2):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        return fleet, small_project(fleet, units_per_client).run()

    def test_scheduled_charges_verify_to_the_verify_clock(self):
        fleet, report = self.one_run()
        assert report.units_accepted == 4
        assert report.units_rejected == 0
        assert fleet.verify_clock.busy_ms > 0.0
        assert fleet.server_clock.busy_ms == 0.0  # dispatch does no verify work
        # ...but the server's machine report still aggregates both.
        assert fleet.machine_reports()[-1].busy_ms == fleet.verify_clock.busy_ms

    def test_scheduled_mode_deterministic(self):
        a = json.dumps(self.one_run()[1].to_dict(), sort_keys=True)
        b = json.dumps(self.one_run()[1].to_dict(), sort_keys=True)
        assert a == b


class TestPerMachineFaults:
    def test_fault_addressed_to_one_machine_fires_only_there(self):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(kind="tpm-transient", op="quote", machine="client-01"),
        ))
        injectors = {
            host.machine_id: FaultInjector(
                plan.for_machine(host.machine_id)
            ).install(host.platform)
            for host in fleet.hosts
        }
        report = small_project(fleet).run()
        # The transient quote fault is retried and absorbed; work completes.
        assert report.units_accepted == 2
        assert [f["kind"] for f in injectors["client-01"].fired] == ["tpm-transient"]
        assert injectors["client-00"].fired == []

    def test_failed_session_is_reissued_not_fatal(self):
        """Fail-closed: a PAL exception on one client aborts only that
        client's session; the server re-issues the unit elsewhere and
        the project still accepts every unit."""
        fleet = FlickerFleet(num_machines=3, seed=2008)
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(kind="pal-exception", machine="client-01"),
        ))
        FaultInjector(plan.for_machine("client-01")).install(
            fleet.host("client-01").platform)
        report = small_project(fleet).run()
        assert report.units_accepted == 3
        assert report.units_rejected == 0
        accepted = {m.machine_id: m.units_accepted for m in report.per_machine}
        assert accepted["client-01"] == 0
        assert sum(accepted.values()) == 3

    def test_for_machine_keeps_broadcast_specs(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(kind="tpm-transient", op="seal"),          # any machine
            FaultSpec(kind="clock-skew", magnitude=150, machine="client-07"),
        ))
        sub = plan.for_machine("client-00")
        assert [s.kind for s in sub.specs] == ["tpm-transient"]
        sub7 = plan.for_machine("client-07")
        assert [s.kind for s in sub7.specs] == ["tpm-transient", "clock-skew"]

    def test_machine_field_round_trips_through_dict(self):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="pal-exception", machine="client-03"),
        ))
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert rebuilt.specs[0].machine == "client-03"


class TestLazyMaterialization:
    def test_construction_materializes_nothing(self):
        fleet = FlickerFleet(num_machines=50, seed=2008)
        assert fleet.materialized_count == 0
        assert len(fleet) == 50
        assert len(fleet.hosts) == 50
        assert fleet.materialized_count == 0

    def test_host_lookup_materializes_exactly_one(self):
        fleet = FlickerFleet(num_machines=50, seed=2008)
        host = fleet.host("client-07")
        assert fleet.materialized_count == 1
        # Indexing hands back the same slot — no re-materialization.
        assert host is fleet.hosts[7]
        assert fleet.materialized_count == 1

    def test_unknown_machine_raises_without_materializing(self):
        fleet = FlickerFleet(num_machines=10, seed=2008)
        with pytest.raises(KeyError):
            fleet.host("client-99")
        assert fleet.materialized_count == 0

    def test_negative_index_and_slice_views(self):
        fleet = FlickerFleet(num_machines=10, seed=2008)
        tail = fleet.hosts[-1]
        assert tail.machine_id == "client-09"
        window = fleet.hosts[2:4]
        assert [h.machine_id for h in window] == ["client-02", "client-03"]
        assert fleet.materialized_count == 3

    def test_machine_reports_cover_unmaterialized_rows(self):
        fleet = FlickerFleet(num_machines=5, seed=2008)
        fleet.host("client-02")
        rows = fleet.machine_reports()
        assert [r.machine_id for r in rows] == [
            f"client-{i:02d}" for i in range(5)
        ] + [SERVER_ID]
        for row in rows[:-1]:
            if row.machine_id != "client-02":
                assert row.sessions == 0
                assert row.busy_ms == 0.0
                assert row.net_bytes == 0

    def test_out_of_order_materialization_is_order_independent(self):
        a = FlickerFleet(num_machines=8, seed=77)
        b = FlickerFleet(num_machines=8, seed=77)
        order = [5, 1, 7, 0]
        for i in order:
            a.hosts[i].platform.tqd.aik_certificate  # noqa: B018
        for i in sorted(order):
            b.hosts[i].platform.tqd.aik_certificate  # noqa: B018
        for i in order:
            assert (a.hosts[i].platform.tqd.aik_certificate.aik_public.n
                    == b.hosts[i].platform.tqd.aik_certificate.aik_public.n)

    def test_sparse_project_materializes_only_participants(self):
        fleet = FlickerFleet(num_machines=40, seed=2008)
        project = FleetProject(
            fleet, n=15015 * 1_000_003, units_per_client=1,
            slice_ms=2000.0, range_per_unit=400, clients=3,
        )
        report = project.run()
        assert report.units_accepted == 3
        assert fleet.materialized_count == 3
        assert report.fleet_size == 40
        assert len(report.per_machine) == 40
        active = {m.machine_id for m in report.per_machine if m.sessions > 0}
        assert active == {"client-00", "client-01", "client-02"}


class TestIndexBase:
    def test_ids_and_seeds_shift_by_base(self):
        group = FlickerFleet(num_machines=4, seed=123, index_base=8)
        assert group.machine_id_at(0) == "client-08"
        assert [h.machine_id for h in group.hosts] == [
            "client-08", "client-09", "client-10", "client-11"
        ]

    def test_group_machines_match_whole_fleet_machines(self):
        """Machine index_base+i of a shard group is *the same machine*
        (same derived seed, hence same keys) as machine index_base+i of
        the undivided fleet — the invariant sharded sweeps rely on."""
        whole = FlickerFleet(num_machines=12, seed=123)
        group = FlickerFleet(num_machines=4, seed=123, index_base=8)
        assert (group.hosts[0].platform.tqd.aik_certificate.aik_public.n
                == whole.hosts[8].platform.tqd.aik_certificate.aik_public.n)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            FlickerFleet(num_machines=2, seed=1, index_base=-1)
