"""Integration tests: the distribution service on a real fleet.

Every scenario runs full Flicker sessions — SKINIT, sealed HMAC state,
PCR-17 attestation — on a small fleet; the assertions pin the quorum
edge cases from docs/DISTRIBUTED.md.
"""

import json

import pytest

from repro.core.fleet import FlickerFleet
from repro.dist import (
    ClientBehavior,
    JobDatabase,
    JobSpec,
    QuorumPolicy,
    ReputationPolicy,
    WorkDistributionService,
    build_report,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec

#: The demonstration composite: 3*5*7*11*13 times a prime.
N = 15015 * 1_000_003

#: All factors of N below 4002 (10 default-size units' divisor space).
FACTORS_4002 = (3, 5, 7, 11, 13, 15, 21, 33, 35, 39, 55, 65, 77, 91, 105,
                143, 165, 195, 231, 273, 385, 429, 455, 715, 1001, 1155,
                1365, 2145, 3003)


def run_service(machines=4, units=4, seed=2008, base_quorum=2,
                behaviors=None, fault_plan=None, timeout_ms=60_000.0,
                observability=False, **policy):
    fleet = FlickerFleet(num_machines=machines, seed=seed,
                         observability=observability)
    if fault_plan is not None:
        for host in fleet.hosts:
            sub = fault_plan.for_machine(host.machine_id)
            if sub.specs:
                FaultInjector(sub).install(host.platform)
    service = WorkDistributionService(
        fleet,
        JobSpec(n=N, total_units=units, batch_size=4,
                timeout_ms=timeout_ms),
        quorum=QuorumPolicy(base_quorum=base_quorum),
        reputation=ReputationPolicy(**policy) if policy
        else ReputationPolicy(),
        behaviors=behaviors or {},
    )
    return service, service.run()


class TestHonestFleet:
    def test_all_units_validate_with_correct_factors(self):
        _, report = run_service(machines=4, units=10, base_quorum=2)
        assert report.units_validated == 10
        assert report.units_abandoned == 0
        assert report.found == FACTORS_4002
        assert report.rejected_attestation == 0
        assert report.timeouts == 0

    def test_deterministic(self):
        a = run_service(units=4)[1].to_dict()
        b = run_service(units=4)[1].to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_reputation_cuts_redundancy(self):
        # With promotion after 1 valid unit and no spot checks, most of a
        # long honest run is issued at k=1 instead of full quorum.
        service, report = run_service(
            machines=2, units=12, base_quorum=2,
            promote_after=1, spot_check_every=0)
        assert report.units_validated == 12
        assert report.assignments < 12 * 2
        assert all(c["trusted"] for c in report.per_client)

    def test_spot_checks_are_issued_at_full_quorum(self):
        service, report = run_service(
            machines=3, units=12, base_quorum=3,
            promote_after=1, spot_check_every=2)
        assert report.units_validated == 12
        assert sum(c["spot_checks"] for c in report.per_client) > 0

    def test_runs_exactly_once(self):
        service, _ = run_service(units=2)
        with pytest.raises(RuntimeError):
            service.run()


class TestAdversaries:
    def test_forged_results_never_reach_quorum(self):
        # The forger computes honestly, then doctors the claimed state
        # with an extra "factor"; its attested PCR chain no longer
        # matches, so verification rejects every result before voting.
        _, report = run_service(
            machines=4, units=6, base_quorum=2,
            behaviors={1: ClientBehavior("forge")})
        assert report.rejected_attestation > 0
        assert report.units_validated == 6
        assert 999983 not in report.found
        assert report.found == tuple(f for f in FACTORS_4002 if f <= 2402)

    def test_lazy_cheat_attests_but_is_outvoted(self):
        # The lazy client's attestation *verifies* (execution integrity
        # holds — it honestly attested an empty result to a doctored
        # unit), so only quorum disagreement catches it.
        _, report = run_service(
            machines=4, units=4, base_quorum=2,
            behaviors={1: ClientBehavior("lazy")})
        assert report.rejected_attestation == 0       # the cheat verifies!
        assert report.units_flagged > 0               # ...but disagrees
        assert report.units_validated == 4
        assert report.found == tuple(f for f in FACTORS_4002 if f <= 1602)
        lazy = report.per_client[1]
        assert lazy["outvoted"] > 0 and not lazy["trusted"]

    def test_malicious_majority_overturned_by_escalation(self):
        # Two colluding lazy clients land 2-of-3 first-round votes on a
        # unit; a first-round majority never wins outright — the flag
        # escalates to fresh clients and the honest digest takes the
        # plurality.
        _, report = run_service(
            machines=5, units=1, base_quorum=3,
            behaviors={1: ClientBehavior("lazy"),
                       2: ClientBehavior("lazy")})
        assert report.units_validated == 1
        assert report.units_flagged == 1
        assert report.found == tuple(f for f in FACTORS_4002 if f <= 402)

    def test_tie_vote_on_exhausted_pool_abandons(self):
        # One honest and one lazy client, nobody left to break the tie:
        # the unit is abandoned rather than guessed at.
        _, report = run_service(
            machines=2, units=1, base_quorum=2,
            behaviors={1: ClientBehavior("lazy")})
        assert report.units_abandoned == 1
        assert report.units_validated == 0
        assert report.found == ()


class TestChurn:
    def test_dropout_times_out_and_unit_reissues(self):
        _, report = run_service(
            machines=4, units=4, base_quorum=3, timeout_ms=30_000.0,
            behaviors={2: ClientBehavior("dropout")})
        assert report.timeouts >= 1
        assert report.units_validated == 4
        assert report.resends >= 1

    def test_flaky_late_results_are_ignored_mid_quorum(self):
        # The flaky client answers after its deadline: the server has
        # already timed it out and re-issued; the late result is logged
        # and discarded, and every unit still validates.
        _, report = run_service(
            machines=4, units=12, base_quorum=3, timeout_ms=12_000.0,
            behaviors={2: ClientBehavior("flaky", delay_ms=18_000.0)})
        assert report.timeouts >= 1
        assert report.late >= 1
        assert report.units_validated == 12
        # N has no divisor in (4002, 4802), so the 12-unit sweep finds
        # exactly the same factors as the 10-unit one.
        assert report.found == FACTORS_4002

    def test_all_clients_dead_terminates_instead_of_hanging(self):
        # The issued unit is abandoned once every voter has timed out of
        # it; the unit that never got issued stays honestly unresolved
        # (the job would resume it if clients came back).
        _, report = run_service(
            machines=2, units=2, base_quorum=2, timeout_ms=20_000.0,
            behaviors={0: ClientBehavior("dropout"),
                       1: ClientBehavior("dropout")})
        assert report.units_validated == 0
        assert report.units_abandoned == 1
        assert report.units_unresolved == 1
        assert report.timeouts == 2


class TestFaults:
    def test_transient_tpm_fault_absorbed_by_retry(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(kind="tpm-transient", op="quote",
                      machine="client-01"),
        ))
        _, report = run_service(machines=3, units=3, base_quorum=2,
                                fault_plan=plan)
        assert report.failures == 0
        assert report.units_validated == 3

    def test_corrupted_session_fails_closed_and_reissues(self):
        # An SLB bit flip changes the measured PCR: the PAL's unseal is
        # denied and the session faults — the corrupted result never
        # exists, the client reports the failure, the unit re-issues.
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(kind="slb-bit-flip", session=1, magnitude=64,
                      machine="client-01"),
        ))
        _, report = run_service(machines=3, units=4, base_quorum=2,
                                fault_plan=plan)
        assert report.failures >= 1
        assert report.units_validated == 4
        assert report.found == tuple(f for f in FACTORS_4002 if f <= 1602)


class TestReplay:
    def test_replayed_dump_reproduces_identical_report(self):
        service, report = run_service(
            machines=4, units=6, base_quorum=2, timeout_ms=30_000.0,
            behaviors={1: ClientBehavior("lazy"),
                       3: ClientBehavior("dropout")})
        dump = service.db.dump_json()
        replayed = build_report(JobDatabase.from_json(dump))
        assert replayed.to_dict() == report.to_dict()
        # The dump itself is byte-stable through a round trip.
        assert JobDatabase.from_json(dump).dump_json() == dump

    def test_sweep_workers_byte_identical(self):
        from repro.dist.sweep import dist_cell, merge_dist_cells
        from repro.sim.parallel import run_sharded

        configs = [
            dict(machines=3, units=4, seed=2008, behaviors="1:lazy"),
            dict(machines=2, units=2, seed=5),
        ]
        serial = run_sharded(dist_cell, configs, merge_dist_cells, workers=1)
        parallel = run_sharded(dist_cell, configs, merge_dist_cells,
                               workers=4)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)


@pytest.mark.obs
class TestObservability:
    def test_verifier_spans_and_queue_metrics(self):
        service, report = run_service(machines=3, units=3, base_quorum=2,
                                      observability=True)
        hubs = service.fleet.hubs()
        verify_hub = hubs["server-verify"]
        assert verify_hub.find_spans("verify-result")
        server_hub = hubs["server"]
        lifecycle = server_hub.find_spans("unit-lifecycle")
        assert len(lifecycle) == 3
        registry = server_hub.registry
        assert registry.counter("dist_units_validated_total").value() == 3
        assert registry.gauge("dist_verify_queue_depth").value() == 0
        assert report.max_verify_queue_depth >= 1
