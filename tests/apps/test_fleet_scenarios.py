"""Fleet-level application scenarios: the VPN gateway and a multi-client
BOINC project (the deployments §6.1/§6.2 motivate)."""

import pytest

from repro.apps.distributed import (
    BOINCClient,
    BOINCServer,
    FleetProject,
    ReplicationScheme,
)
from repro.apps.rootkit_detector import VPNGateway
from repro.core import FlickerFleet, FlickerPlatform
from repro.osim.attacker import Attacker


class TestVPNGateway:
    @pytest.fixture
    def gateway(self):
        gw = VPNGateway()
        self.platforms = {
            "laptop-a": FlickerPlatform(seed=101),
            "laptop-b": FlickerPlatform(seed=102),
        }
        for host, platform in self.platforms.items():
            gw.enroll(host, platform)
        return gw

    def test_clean_host_admitted(self, gateway):
        decision = gateway.request_access("laptop-a")
        assert decision.admitted
        assert decision.report.attestation_valid

    def test_compromised_host_denied(self, gateway):
        Attacker(self.platforms["laptop-b"].kernel).patch_kernel_text()
        decision = gateway.request_access("laptop-b")
        assert not decision.admitted
        assert decision.report.compromised

    def test_compromise_on_one_host_does_not_affect_others(self, gateway):
        Attacker(self.platforms["laptop-b"].kernel).hook_syscall(2)
        assert gateway.request_access("laptop-a").admitted
        assert not gateway.request_access("laptop-b").admitted

    def test_unenrolled_host_denied(self, gateway):
        decision = gateway.request_access("stranger")
        assert not decision.admitted
        assert "not enrolled" in decision.report.failures[0]

    def test_audit_log_records_everything(self, gateway):
        gateway.request_access("laptop-a")
        gateway.request_access("stranger")
        assert [d.host for d in gateway.audit_log] == ["laptop-a", "stranger"]
        assert [d.admitted for d in gateway.audit_log] == [True, False]

    def test_repeat_checks_catch_later_compromise(self, gateway):
        assert gateway.request_access("laptop-a").admitted
        Attacker(self.platforms["laptop-a"].kernel).patch_kernel_text()
        assert not gateway.request_access("laptop-a").admitted


class TestBOINCProject:
    """The §6.2 project end to end: units run on the concurrent fleet
    (:class:`FleetProject`) or a client/server pair, and the server
    accepts only results it verified against each client's attestation."""

    def test_fleet_run_all_units_accepted(self):
        fleet = FlickerFleet(num_machines=3, seed=200)
        report = FleetProject(fleet, n=3 * 5 * 7 * 1_000_003,
                              units_per_client=2, slice_ms=1000.0,
                              range_per_unit=200).run()
        assert report.units_issued == 6
        assert report.units_accepted == 6
        assert report.units_rejected == 0

    def test_fleet_finds_all_low_factors(self):
        server = BOINCServer(n=3 * 5 * 7 * 1_000_003, range_per_unit=200)
        nonce = b"\x3c" * 20
        for seed in (300, 301):
            platform = FlickerPlatform(seed=seed)
            client = BOINCClient(platform)
            unit = server.issue_unit()
            progress = client.start_unit(unit)
            while not progress.done:
                progress, result = client.work_slice(progress, 1000.0, nonce=nonce)
            attestation = platform.attest(nonce, result)
            assert server.accept_result(platform, unit, progress, result,
                                        attestation, nonce)
        found = set()
        for factors in server.verified_results.values():
            found.update(factors)
        assert {3, 5, 7} <= found

    def test_efficiency_beats_replication_at_long_slices(self):
        fleet = FlickerFleet(num_machines=1, seed=400)
        report = FleetProject(fleet, n=15015, units_per_client=1,
                              slice_ms=4000.0, range_per_unit=100_000).run()
        assert report.units_accepted == 1
        assert report.efficiency > ReplicationScheme(3).efficiency

    def test_each_client_attests_with_its_own_aik(self):
        """Per-client TPMs: the server's trust decisions are per machine."""
        p1, p2 = FlickerPlatform(seed=500), FlickerPlatform(seed=501)
        assert p1.machine.tpm.aik_public != p2.machine.tpm.aik_public
