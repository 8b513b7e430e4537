"""Cross-layer security-property tests: the paper's §3.2 goals, each
demonstrated against an active adversary."""

import pytest

from repro.core import FlickerPlatform, PAL
from repro.errors import (
    DebugAccessError,
    DMAProtectionError,
)
from repro.osim.attacker import Attacker


class SecretSessionPAL(PAL):
    """Holds a secret in SLB memory and gives the test hooks to attack the
    session while it runs."""

    name = "secret-session"
    modules = ("tpm_utils",)
    mid_session_hook = None

    def run(self, ctx):
        ctx.mem.write(ctx.layout.stack_base, b"IN-SESSION-SECRET-0xABC")
        if type(self).mid_session_hook is not None:
            type(self).mid_session_hook(ctx)
        ctx.write_output(b"finished")


@pytest.fixture
def platform():
    return FlickerPlatform(seed=31337)


@pytest.fixture(autouse=True)
def reset_hook():
    yield
    SecretSessionPAL.mid_session_hook = None


class TestIsolationGoal:
    """Goal 1 (§3.2): complete isolation from all other software and
    devices, including DMA and hardware debuggers."""

    def test_dma_cannot_read_session_secret(self, platform):
        attacker = Attacker(platform.kernel)

        def attack(ctx):
            base = platform.flicker.slb_base
            with pytest.raises(DMAProtectionError):
                attacker.dma_probe(base, 64 * 1024)

        SecretSessionPAL.mid_session_hook = staticmethod(attack)
        platform.execute_pal(SecretSessionPAL())

    def test_debugger_cannot_read_session_secret(self, platform):
        attacker = Attacker(platform.kernel)

        def attack(ctx):
            with pytest.raises(DebugAccessError):
                attacker.debugger_probe(platform.flicker.slb_base, 4096)

        SecretSessionPAL.mid_session_hook = staticmethod(attack)
        platform.execute_pal(SecretSessionPAL())

    def test_interrupts_disabled_during_session(self, platform):
        seen = {}

        def observe(ctx):
            seen["interrupts"] = platform.machine.cpu.bsp.interrupts_enabled

        SecretSessionPAL.mid_session_hook = staticmethod(observe)
        platform.execute_pal(SecretSessionPAL())
        assert seen["interrupts"] is False

    def test_no_trace_after_session(self, platform):
        """Goal 1 second half: secrecy of the PAL's data *after* it exits
        the isolated environment."""
        platform.execute_pal(SecretSessionPAL())
        attacker = Attacker(platform.kernel)
        assert attacker.scan_memory_for(b"IN-SESSION-SECRET-0xABC") == []

    def test_dma_allowed_before_and_after(self, platform):
        """The DEV protection is session-scoped: the platform is a normal
        machine outside Flicker sessions."""
        attacker = Attacker(platform.kernel)
        attacker.dma_probe(0x500000, 16)  # fine before
        platform.execute_pal(SecretSessionPAL())
        attacker.dma_probe(0x500000, 16)  # fine after


class TestMaliciousRing0:
    """§3.1: the adversary runs at ring 0 and can invoke SKINIT with
    arguments of its choosing — but gains nothing."""

    def test_attacker_skinit_with_own_slb_yields_attacker_measurement(self, platform):
        """The adversary can late-launch its own code, but PCR 17 then
        records *its* identity, so attestations name the attacker."""
        machine = platform.machine
        evil_image = (100).to_bytes(2, "little") + (4).to_bytes(2, "little")
        evil_image = evil_image + b"\xe1" * 96
        evil_image = evil_image.ljust(64 * 1024, b"\x00")
        base = platform.kernel.kalloc(64 * 1024 + 3 * 4096, align=64 * 1024)
        machine.memory.write(base, evil_image)
        machine.register_executable(evil_image, lambda m, c, b: "evil-ran")
        platform.kernel.deschedule_aps()
        machine.apic.broadcast_init_ipi()
        assert machine.skinit(0, base) == "evil-ran"
        from repro.crypto.sha1 import sha1

        expected = sha1(b"\x00" * 20 + sha1(evil_image[:100]))
        assert machine.tpm.pcrs.read(17) == expected
        # A verifier expecting the honest PAL's chain will never match.
        honest = platform.build(SecretSessionPAL())
        assert machine.tpm.pcrs.read(17) != honest.pcr17_launch_value
        # Restore for other tests.
        platform.kernel.resume_aps()
        machine.cpu.bsp.interrupts_enabled = True
        machine.cpu.bsp.paging_enabled = True
        machine.cpu.bsp.debug_access_enabled = True
        machine.dev.clear()

    def test_attacker_cannot_skinit_from_ring3(self, platform):
        from repro.errors import PrivilegeError

        platform.machine.cpu.bsp.ring = 3
        with pytest.raises(PrivilegeError):
            platform.machine.skinit(0, 0x100000)
        platform.machine.cpu.bsp.ring = 0

    def test_attacker_regains_control_but_secrets_are_gone(self, platform):
        """§3.1: 'We also allow the adversary to regain control between
        Flicker sessions' — by then nothing secret remains."""
        platform.execute_pal(SecretSessionPAL())
        attacker = Attacker(platform.kernel)
        # Full ring-0 memory sweep finds nothing.
        assert attacker.scan_memory_for(b"IN-SESSION-SECRET") == []


class TestMeaningfulAttestation:
    """Goal 3 (§3.2): attestations cover exactly the code, inputs and
    outputs — and leak nothing else."""

    def test_attestation_covers_only_session_artifacts(self, platform):
        nonce = b"\x66" * 20
        session = platform.execute_pal(SecretSessionPAL(), inputs=b"in", nonce=nonce)
        attestation = platform.attest(nonce, session)
        # The attestation names the PAL, inputs, outputs, nonce — and the
        # event log contains no reference to the OS, other apps, etc.
        labels = {label for label, _ in attestation.event_log}
        assert labels <= {"skinit-slb", "slb-region", "pal-extend", "io", "sentinel"}

    def test_verifier_needs_only_pal_knowledge(self, platform):
        """The verifier validates with: the PAL image, its nonce, the
        Privacy CA key.  No OS measurement list (contrast with IMA)."""
        nonce = b"\x67" * 20
        pal = SecretSessionPAL()
        session = platform.execute_pal(pal, inputs=b"", nonce=nonce)
        attestation = platform.attest(nonce, session)
        report = platform.verifier().verify(attestation, session.image, nonce)
        assert report.ok


class TestMinimalTCB:
    """Goal 4 (§3.2): the mandatory TCB stays tiny."""

    def test_mandatory_tcb_under_250_lines(self):
        from repro.core.modules import MODULE_REGISTRY

        assert MODULE_REGISTRY["slb_core"].lines_of_code < 250

    def test_minimal_pal_links_only_slb_core(self, platform):
        class Tiny(PAL):
            name = "tiny"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"t")

        image = platform.build(Tiny())
        assert image.linked_modules == ("slb_core",)

    def test_flicker_module_outside_tcb(self, platform):
        """The flicker-module is untrusted: corrupting its text changes the
        kernel's measured state but not any PAL's measurement or chain."""
        pal = SecretSessionPAL()
        image_before = platform.build(pal)
        value_before = image_before.pcr17_launch_value
        # 'Compromise' the flicker-module in memory.
        platform.machine.memory.write(platform.flicker.text_addr, b"\xde\xad" * 64)
        assert platform.build(pal).pcr17_launch_value == value_before
        # Sessions still run and attest correctly.
        nonce = b"\x68" * 20
        session = platform.execute_pal(pal, nonce=nonce)
        attestation = platform.attest(nonce, session)
        assert platform.verifier().verify(attestation, session.image, nonce).ok
