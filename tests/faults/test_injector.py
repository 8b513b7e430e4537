"""FaultInjector mechanics: determinism, gating, trace observability."""

import pytest

from repro.core import FlickerPlatform, PAL
from repro.errors import (
    FaultPlanError,
    PALRuntimeError,
    SessionAbortedError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec

pytestmark = pytest.mark.faults


class EchoPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"echo:" + ctx.inputs)


class SealingPAL(PAL):
    name = "sealer"
    modules = ("tpm_driver", "tpm_utils")

    def run(self, ctx):
        blob = ctx.tpm.seal_to_pal(b"pal-secret", ctx.self_pcr17)
        ctx.write_output(blob.encode())


def plan_of(*specs):
    return FaultPlan(seed=0, specs=tuple(specs))


def install(platform, *specs):
    return FaultInjector(plan_of(*specs)).install(platform)


class TestDeterminism:
    def run_sequence(self, seed):
        platform = FlickerPlatform(seed=4321)
        injector = FaultInjector(FaultPlan.generate(seed)).install(platform)
        pal = SealingPAL()
        for i in range(3):
            try:
                platform.execute_pal(pal, inputs=bytes([i]))
            except (PALRuntimeError, SessionAbortedError):
                pass
        return injector.fired

    def test_same_seed_same_fault_sequence(self):
        for seed in (0, 5, 11, 23):
            assert self.run_sequence(seed) == self.run_sequence(seed)

    def test_fault_sequences_vary_across_seeds(self):
        sequences = {repr(self.run_sequence(seed)) for seed in range(8)}
        assert len(sequences) > 1


class TestSessionTracking:
    def test_session_index_advances(self, platform):
        injector = install(platform)
        assert injector.session_index == -1
        platform.execute_pal(EchoPAL())
        assert injector.session_index == 0
        platform.execute_pal(EchoPAL())
        assert injector.session_index == 1

    def test_session_scoping_selects_one_session(self, platform):
        injector = install(
            platform, FaultSpec(kind="pal-exception", session=1)
        )
        platform.execute_pal(EchoPAL())  # session 0 unaffected
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(EchoPAL())  # session 1 faults
        assert [f["session"] for f in injector.fired] == [1]

    def test_unknown_point_raises(self, platform):
        injector = install(platform)
        with pytest.raises(FaultPlanError):
            injector.fire("warp.core", platform.machine)


class TestTraceObservability:
    def test_every_fired_fault_is_a_trace_event(self, platform):
        injector = install(
            platform,
            FaultSpec(kind="clock-skew", session=0, magnitude=150),
            FaultSpec(kind="debug-probe", session=0),
        )
        platform.execute_pal(EchoPAL())
        events = platform.machine.trace.events(source="fault")
        assert len(events) == len(injector.fired) == 2
        kinds = {e.kind for e in events}
        assert kinds == {"clock-skew", "debug-probe"}
        for event in events:
            assert event.detail["session"] == 0

    def test_trace_records_spec_index(self, platform):
        install(platform, FaultSpec(kind="debug-probe", session=0))
        platform.execute_pal(EchoPAL())
        (event,) = platform.machine.trace.events(source="fault")
        assert event.detail["spec"] == 0


class TestTransientRetry:
    def test_transient_fault_is_retried_to_success(self, platform):
        injector = install(
            platform,
            FaultSpec(kind="tpm-transient", session=0, op="seal", count=1),
        )
        result = platform.execute_pal(SealingPAL())
        assert result.retries == 1
        assert result.outputs  # the retry attempt sealed successfully
        assert len(injector.fired) == 1
        assert platform.machine.trace.events(kind="session-retry")

    def test_exhausted_retries_abort_with_typed_error(self, platform):
        install(
            platform,
            FaultSpec(kind="tpm-transient", session=0, op="seal", count=99),
        )
        with pytest.raises(SessionAbortedError):
            platform.execute_pal(SealingPAL())

    def test_permanent_fault_fails_closed_immediately(self, platform):
        injector = install(
            platform,
            FaultSpec(kind="tpm-permanent", session=0, op="seal"),
        )
        with pytest.raises(SessionAbortedError):
            platform.execute_pal(SealingPAL())
        # No retry for permanent faults: one attempt, one fault.
        assert not platform.machine.trace.events(kind="session-retry")
        assert len(injector.fired) == 1

    def test_os_is_restored_after_aborted_session(self, platform):
        install(
            platform,
            FaultSpec(kind="tpm-permanent", session=0, op="seal"),
        )
        with pytest.raises(SessionAbortedError):
            platform.execute_pal(SealingPAL())
        # Fail-closed means the platform is still usable afterwards.
        assert platform.machine.cpu.bsp.interrupts_enabled
        result = platform.execute_pal(EchoPAL(), inputs=b"after")
        assert result.outputs == b"echo:after"


class TestGating:
    def test_slb_core_bookkeeping_commands_are_exempt(self, platform):
        # An any-session, any-count pcr_extend fault must never strike the
        # SLB Core's own closing extends — only PAL-issued commands.
        install(
            platform,
            FaultSpec(kind="tpm-transient", session=-1, op="pcr_extend",
                      count=99),
        )
        result = platform.execute_pal(EchoPAL(), inputs=b"x")
        assert result.outputs == b"echo:x"
        assert result.retries == 0

    def test_quote_faults_strike_outside_sessions(self, platform):
        install(
            platform,
            FaultSpec(kind="tpm-transient", session=-1, op="quote", count=1),
        )
        session = platform.execute_pal(EchoPAL())
        attestation = platform.attest(session.nonce)
        assert platform.machine.trace.events(kind="attest-retry")
        report = platform.verifier().verify(
            attestation, session.image, session.nonce
        )
        assert report.ok


class TestClockSkew:
    def test_skew_applies_only_to_targeted_session(self, platform):
        install(
            platform, FaultSpec(kind="clock-skew", session=0, magnitude=200)
        )
        slow = platform.execute_pal(EchoPAL())
        assert platform.machine.clock.skew == 1.0  # reset at session end
        fast = platform.execute_pal(EchoPAL())
        assert slow.total_ms > fast.total_ms * 1.5

    def test_raw_setter_rejects_nonpositive(self, platform):
        with pytest.raises(ValueError):
            platform.machine.clock.set_skew(0)
