"""Flicker session flow: the Figure 2 timeline end to end."""

import pytest

from repro.core import FlickerPlatform, PAL
from repro.core.layout import SLB_REGION_SIZE, SLBLayout
from repro.errors import FlickerError, PALRuntimeError, SLBFormatError


class EchoPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"echo:" + ctx.inputs)


class SecretPAL(PAL):
    name = "secret-holder"
    modules = ()

    def run(self, ctx):
        # Park a recognizable secret in the SLB region (stack area).
        ctx.mem.write(ctx.layout.stack_base, b"THE-PAL-SECRET-VALUE")
        ctx.write_output(b"done")


class FaultyPAL(PAL):
    name = "faulty"
    modules = ()

    def run(self, ctx):
        ctx.mem.write(ctx.layout.stack_base, b"FAULTY-PAL-SECRET")
        raise RuntimeError("deliberate PAL crash")


class TagPAL(PAL):
    name = "tag"
    modules = ()

    def run(self, ctx):
        ctx.write_output(self.tag)


class TestBasicExecution:
    def test_inputs_reach_pal_and_outputs_return(self, platform):
        result = platform.execute_pal(EchoPAL(), inputs=b"payload")
        assert result.outputs == b"echo:payload"

    def test_sysfs_outputs_entry_matches(self, platform):
        platform.execute_pal(EchoPAL(), inputs=b"x")
        assert platform.kernel.sysfs.read("flicker/outputs") == b"echo:x"

    def test_empty_inputs_ok(self, platform):
        assert platform.execute_pal(EchoPAL()).outputs == b"echo:"

    def test_repeated_sessions(self, platform):
        pal = EchoPAL()
        for i in range(3):
            result = platform.execute_pal(pal, inputs=str(i).encode())
            assert result.outputs == b"echo:" + str(i).encode()

    def test_different_pals_alternate(self, platform):
        assert platform.execute_pal(EchoPAL(), inputs=b"a").outputs == b"echo:a"
        assert platform.execute_pal(SecretPAL()).outputs == b"done"
        assert platform.execute_pal(EchoPAL(), inputs=b"b").outputs == b"echo:b"

    def test_bad_nonce_length_rejected(self, platform):
        with pytest.raises(FlickerError):
            platform.flicker.execute(nonce=b"short")

    def test_control_without_slb_rejected(self, platform):
        fresh = FlickerPlatform(seed=99)
        with pytest.raises(FlickerError):
            fresh.kernel.sysfs.write("flicker/control", b"go")

    def test_unknown_control_command_rejected(self, platform):
        platform.execute_pal(EchoPAL())  # installs an SLB
        with pytest.raises(FlickerError):
            platform.kernel.sysfs.write("flicker/control", b"explode")


class TestOSSuspendResume:
    def test_os_state_restored_after_session(self, platform):
        bsp = platform.machine.cpu.bsp
        cr3_before = bsp.cr3
        gdt_before = bsp.gdt
        platform.execute_pal(EchoPAL())
        assert bsp.interrupts_enabled
        assert bsp.paging_enabled
        assert bsp.cr3 == cr3_before
        assert bsp.gdt is gdt_before
        assert bsp.ring == 0

    def test_aps_resumed(self, platform):
        platform.kernel.spawn("bsp-proc")
        ap_proc = platform.kernel.spawn("ap-proc")
        platform.execute_pal(EchoPAL())
        assert not platform.machine.cpu.cores[1].halted
        assert ap_proc.core_id == 1

    def test_dev_cleared_after_session(self, platform):
        platform.execute_pal(EchoPAL())
        assert len(platform.machine.dev) == 0

    def test_suspend_precedes_skinit_in_trace(self, platform):
        platform.execute_pal(EchoPAL())
        assert platform.machine.trace.ordered_before("os-suspended", "skinit")

    def test_slb_core_exit_precedes_resume(self, platform):
        platform.execute_pal(EchoPAL())
        assert platform.machine.trace.ordered_before("slb-core-exit", "os-resumed")


class TestCleanup:
    def test_secrets_erased_from_slb_region(self, platform):
        platform.execute_pal(SecretPAL())
        hits = platform.machine.memory.find_bytes(b"THE-PAL-SECRET-VALUE")
        assert hits == ()

    def test_slb_region_zeroed(self, platform):
        platform.execute_pal(EchoPAL())
        base = platform.flicker.slb_base
        assert platform.machine.memory.is_zero(base, SLB_REGION_SIZE)

    def test_input_page_zeroed(self, platform):
        # SecretPAL ignores its inputs, so nothing may survive anywhere —
        # neither in the input page nor copied into the (public) outputs.
        platform.execute_pal(SecretPAL(), inputs=b"sensitive-input-data")
        layout = SLBLayout(base=platform.flicker.slb_base)
        assert platform.machine.memory.is_zero(layout.input_page, 4096)
        assert platform.machine.memory.find_bytes(b"sensitive-input-data") == ()


class TestFaultContainment:
    def test_faulty_pal_raises_after_restore(self, platform):
        with pytest.raises(PALRuntimeError, match="deliberate PAL crash"):
            platform.execute_pal(FaultyPAL())
        bsp = platform.machine.cpu.bsp
        assert bsp.interrupts_enabled
        assert bsp.paging_enabled

    def test_faulty_pal_secrets_still_erased(self, platform):
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(FaultyPAL())
        assert platform.machine.memory.find_bytes(b"FAULTY-PAL-SECRET") == ()

    def test_faulty_pal_produces_no_outputs(self, platform):
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(FaultyPAL())
        assert platform.kernel.sysfs.read("flicker/outputs") == b""

    def test_platform_usable_after_fault(self, platform):
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(FaultyPAL())
        assert platform.execute_pal(EchoPAL(), inputs=b"recovered").outputs == b"echo:recovered"


class TestTimings:
    def test_phase_breakdown_present(self, platform):
        result = platform.execute_pal(EchoPAL())
        for phase in ("flicker-session", "suspend-os", "skinit", "slb-init",
                      "pal-exec", "cleanup", "extend-pcr", "resume-os", "restore-os"):
            assert phase in result.phase_ms, phase

    def test_total_covers_phases(self, platform):
        result = platform.execute_pal(EchoPAL())
        assert result.total_ms == pytest.approx(result.phase_ms["flicker-session"])

    def test_optimized_skinit_near_14ms(self, platform):
        """§7.2: the optimization brings SKINIT to ≈14 ms."""
        result = platform.execute_pal(EchoPAL())
        assert result.phase_ms["skinit"] == pytest.approx(14.0, abs=1.0)

    def test_unoptimized_skinit_costs_more_for_big_tcb(self, platform):
        class BigTCB(PAL):
            name = "big"
            modules = ("crypto",)

            def run(self, ctx):
                ctx.write_output(b"x")

        optimized = platform.execute_pal(BigTCB(), optimize=True)
        unoptimized = platform.execute_pal(BigTCB(), optimize=False)
        assert unoptimized.phase_ms["skinit"] > 3 * optimized.phase_ms["skinit"]

    def test_tpm_ms_reports_counter_commands(self, platform):
        """Every TPM command a session issues shows in its per-op time at
        its profile cost, monotonic-counter commands included."""
        owner = b"\x07" * 20
        platform.machine.tpm.take_ownership(owner)

        class CounterPAL(PAL):
            name = "counter"
            modules = ("tpm_utils",)

            def run(self, ctx):
                counter_id = ctx.tpm.create_counter(b"ctr", owner)
                ctx.tpm.increment_counter(counter_id)
                ctx.write_output(b"ok")

        result = platform.execute_pal(CounterPAL())
        nv_op_ms = platform.machine.profile.tpm.nv_op_ms
        assert result.tpm_ms["counter_create"] == nv_op_ms
        assert result.tpm_ms["counter_increment"] == nv_op_ms

    def test_format_phases_renders_timeline(self, platform):
        result = platform.execute_pal(EchoPAL())
        text = result.format_phases()
        assert "skinit" in text
        assert "TOTAL" in text
        assert "senter" not in text  # SVM session has no SENTER phase

    def test_virtual_time_monotonic(self, platform):
        t0 = platform.machine.clock.now()
        platform.execute_pal(EchoPAL())
        assert platform.machine.clock.now() > t0


class TestPALIdentity:
    def test_instance_state_is_refused(self, platform):
        """SKINIT measures the class, not the instance: a session must not
        run some other instance's attribute under the same measurement."""
        a, b = TagPAL(), TagPAL()
        a.tag, b.tag = b"A", b"B"
        for pal in (a, b, a):
            with pytest.raises(SLBFormatError, match="instance state"):
                platform.execute_pal(pal)

    def test_platforms_share_one_image_per_pal_class(self, platform):
        linked = []

        class SharedPAL(PAL):
            name = "shared"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"shared")

            def code_bytes(self):
                linked.append(self)
                return super().code_bytes()

        other = FlickerPlatform(seed=1234)
        image = platform.build(SharedPAL())
        assert other.build(SharedPAL()) is image
        assert platform.execute_pal(SharedPAL()).image is image
        assert other.execute_pal(SharedPAL()).outputs == b"shared"
        assert len(linked) == 1
