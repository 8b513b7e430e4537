"""Distributed-computing application tests (paper §6.2, §7.3, Figure 8)."""

import pytest

from repro.apps.distributed import (
    BOINCClient,
    BOINCServer,
    ClientProgress,
    FactoringState,
    FactoringWorkUnit,
    ReplicationScheme,
    flicker_efficiency,
)
from repro.errors import PALRuntimeError
from repro.osim.attacker import Attacker

NONCE = b"\x0d" * 20


@pytest.fixture
def client(platform):
    return BOINCClient(platform)


@pytest.fixture
def server():
    # 3 * 5 * 7 * 11 * 13 = 15015 has many small factors.
    return BOINCServer(n=15015 * 1_000_003, range_per_unit=400)


class TestFactoringState:
    def test_encode_decode(self):
        state = FactoringState(unit_id=3, n=15015, cursor=17, end=400, found=(3, 5, 7))
        assert FactoringState.decode(state.encode()) == state

    def test_done_flag(self):
        assert FactoringState(0, 10, cursor=100, end=100).done
        assert not FactoringState(0, 10, cursor=99, end=100).done


class TestWorkUnitLifecycle:
    def test_init_session_produces_protected_state(self, client, server):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        assert progress.state.unit_id == unit.unit_id
        assert progress.state.cursor == unit.start
        assert len(progress.mac) == 20
        assert not progress.done

    def test_unit_runs_to_completion(self, client, server):
        unit = server.issue_unit()
        progress, _ = client.run_unit(unit, slice_ms=1000)
        state = progress.state
        assert state.done
        assert 3 in state.found and 5 in state.found and 7 in state.found

    def test_found_factors_actually_divide(self, client, server):
        unit = server.issue_unit()
        progress, _ = client.run_unit(unit, slice_ms=1000)
        for factor in progress.state.found:
            assert server.n % factor == 0

    def test_work_split_across_slices(self, client, server):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        slices = 0
        while not progress.done:
            # 1 ms of work covers ~181 divisors, under the 400-wide range,
            # so the unit must take multiple sessions.
            progress, _ = client.work_slice(progress, slice_ms=1)
            slices += 1
            assert slices < 100
        assert slices >= 2

    def test_units_have_disjoint_ranges(self, server):
        u1, u2 = server.issue_unit(), server.issue_unit()
        assert u1.end <= u2.start


class TestStateIntegrity:
    def test_tampered_state_rejected(self, client, server):
        """An OS that edits the inter-session state (e.g. to skip work)
        fails the HMAC check in the next session."""
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        doctored = FactoringState.decode(progress.state_bytes)
        doctored = FactoringState(
            unit_id=doctored.unit_id, n=doctored.n,
            cursor=doctored.end,  # pretend the work is done
            end=doctored.end, found=(),
        )
        forged = ClientProgress(
            sealed_key=progress.sealed_key,
            state_bytes=doctored.encode(),
            mac=progress.mac,
        )
        with pytest.raises(PALRuntimeError, match="MAC"):
            client.work_slice(forged, slice_ms=100)

    def test_tampered_mac_rejected(self, client, server):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        forged = ClientProgress(
            sealed_key=progress.sealed_key,
            state_bytes=progress.state_bytes,
            mac=bytes(b ^ 1 for b in progress.mac),
        )
        with pytest.raises(PALRuntimeError, match="MAC"):
            client.work_slice(forged, slice_ms=100)

    def test_hmac_key_unreachable_by_os(self, client, server, platform):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        from repro.errors import TPMPolicyError

        with pytest.raises(TPMPolicyError):
            platform.tqd.driver.unseal(progress.sealed_key)

    def test_sealed_key_blob_tamper_rejected(self, client, server, platform):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        forged = ClientProgress(
            sealed_key=Attacker(platform.kernel).tamper_blob(progress.sealed_key),
            state_bytes=progress.state_bytes,
            mac=progress.mac,
        )
        with pytest.raises(PALRuntimeError):
            client.work_slice(forged, slice_ms=100)


class TestServerVerification:
    def test_attested_result_accepted(self, client, server, platform):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        result = None
        while not progress.done:
            progress, result = client.work_slice(progress, slice_ms=1000, nonce=NONCE)
        attestation = platform.attest(NONCE, result)
        assert server.accept_result(platform, unit, progress, result, attestation, NONCE)
        assert server.verified_results[unit.unit_id] == progress.state.found

    def test_forged_result_rejected(self, client, server, platform):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        result = None
        while not progress.done:
            progress, result = client.work_slice(progress, slice_ms=1000, nonce=NONCE)
        attestation = platform.attest(NONCE, result)
        # A cheating client claims different factors.
        lying_state = FactoringState(
            unit_id=unit.unit_id, n=server.n, cursor=unit.end, end=unit.end,
            found=(9999,),
        )
        lying = ClientProgress(
            sealed_key=progress.sealed_key,
            state_bytes=lying_state.encode(),
            mac=progress.mac,
            done=True,
        )
        assert not server.accept_result(platform, unit, lying, result, attestation, NONCE)

    def test_unfinished_unit_rejected(self, client, server, platform):
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        progress, result = client.work_slice(progress, slice_ms=1, nonce=NONCE)
        assert not progress.done  # 1 ms covers < half the 400-wide range
        attestation = platform.attest(NONCE, result)
        assert not server.accept_result(platform, unit, progress, result, attestation, NONCE)


class TestEfficiencyModel:
    def test_replication_efficiency(self):
        assert ReplicationScheme(3).efficiency == pytest.approx(1 / 3)
        assert ReplicationScheme(7).efficiency == pytest.approx(1 / 7)

    def test_majority_result(self):
        scheme = ReplicationScheme(3)
        assert scheme.majority_result([(3,), (3,), (5,)]) == (3,)
        assert scheme.majority_result([(3,), (5,), (7,)]) is None

    def test_flicker_efficiency_curve_shape(self):
        overhead = 912.6  # SKINIT + Unseal (Table 4)
        values = [flicker_efficiency(s * 1000.0, overhead) for s in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))  # rising
        assert values[0] < 0.2  # ~9% at 1 s
        assert values[-1] > 0.89  # >90% at 10 s

    def test_crossover_vs_3way_near_1_4s(self):
        """§7.3: 'a two second user latency allows a more efficient
        distributed application than replicating to three or more
        machines' — the crossover sits below 2 s."""
        overhead = 912.6
        assert flicker_efficiency(2000.0, overhead) > ReplicationScheme(3).efficiency
        assert flicker_efficiency(1300.0, overhead) < ReplicationScheme(3).efficiency

    def test_zero_latency_degenerate(self):
        assert flicker_efficiency(0.0, 900.0) == 0.0
        assert flicker_efficiency(500.0, 900.0) == 0.0  # overhead exceeds budget


class TestSessionOverheads:
    def test_work_session_overhead_matches_table4(self, client, server, platform):
        """Table 4: SKINIT 14.3 + Unseal 898.3 ≈ 912.6 ms of overhead per
        work session."""
        unit = server.issue_unit()
        progress = client.start_unit(unit)
        clock = platform.machine.clock
        before = clock.now()
        progress, result = client.work_slice(progress, slice_ms=1000)
        total = clock.now() - before
        overhead = total - 1000.0
        assert overhead == pytest.approx(912.6, rel=0.05)
        assert result.tpm_ms["unseal"] == pytest.approx(898.3, rel=0.01)
        assert result.phase_ms["skinit"] == pytest.approx(14.3, abs=1.0)

    def test_overhead_fraction_by_slice_length(self, client, server, platform):
        """Table 4's bottom row: 47/30/18/10 % at 1/2/4/8 s of work."""
        unit = server.issue_unit()
        expectations = {1000: 0.47, 2000: 0.30, 4000: 0.18, 8000: 0.10}
        for work_ms, expected in expectations.items():
            progress = client.start_unit(
                FactoringWorkUnit(unit_id=99, n=15015, start=2, end=3)
            )
            clock = platform.machine.clock
            before = clock.now()
            client.work_slice(progress, slice_ms=work_ms)
            total = clock.now() - before
            fraction = (total - work_ms) / total
            assert fraction == pytest.approx(expected, abs=0.02), work_ms
