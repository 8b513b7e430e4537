"""Adversary-toolkit tests: each attack must actually change state (so
defence tests elsewhere are meaningful)."""

import pytest

from repro.core import PAL
from repro.crypto.sha1 import sha1
from repro.osim.attacker import Attacker
from repro.osim.kernel import SYSCALL_TABLE_BASE


@pytest.fixture
def attacker(kernel):
    return Attacker(kernel)


def measured_hash(kernel):
    """Hash the kernel's measured regions as the detector would."""
    parts = []
    for _, addr, length in kernel.measured_regions():
        parts.append(kernel.machine.memory.read(addr, length))
    return sha1(b"".join(parts))


class TestRootkits:
    def test_text_patch_changes_measurement(self, kernel, attacker):
        before = measured_hash(kernel)
        addr = attacker.patch_kernel_text()
        assert measured_hash(kernel) != before
        assert kernel.machine.memory.read(addr, 4) == b"\xcc" * 4

    def test_text_patch_bounds_checked(self, attacker):
        with pytest.raises(ValueError):
            attacker.patch_kernel_text(offset=1 << 20)

    def test_syscall_hook_changes_measurement(self, kernel, attacker):
        before = measured_hash(kernel)
        hook = attacker.hook_syscall(59)
        assert measured_hash(kernel) != before
        entry = kernel.machine.memory.read(SYSCALL_TABLE_BASE + 4 * 59, 4)
        assert int.from_bytes(entry, "little") == hook

    def test_malicious_module_changes_measurement(self, kernel, attacker):
        before = measured_hash(kernel)
        attacker.install_malicious_module()
        assert measured_hash(kernel) != before
        assert any(m.name == "evil-lkm" for m in kernel.loaded_modules())

    def test_pristine_hash_unaffected_by_attack(self, kernel, attacker):
        """The known-good value is computed from vendor data, so an attack
        must NOT change it — only the live measurement."""
        known_good = sha1(kernel.pristine_measurement_input())
        attacker.patch_kernel_text()
        assert sha1(kernel.pristine_measurement_input()) == known_good
        assert measured_hash(kernel) != known_good


class TestHardwareProbes:
    def test_dma_probe_reads_unprotected_memory(self, kernel, attacker):
        kernel.machine.memory.write(0x700000, b"kernel data")
        assert attacker.dma_probe(0x700000, 11) == b"kernel data"

    def test_dma_probe_blocked_by_dev(self, kernel, attacker):
        from repro.errors import DMAProtectionError

        kernel.machine.dev.protect_range(0x700000, 4096)
        with pytest.raises(DMAProtectionError):
            attacker.dma_probe(0x700000, 4)

    def test_debugger_probe_follows_debug_flag(self, kernel, attacker):
        from repro.errors import DebugAccessError

        kernel.machine.memory.write(0x710000, b"dbg")
        assert attacker.debugger_probe(0x710000, 3) == b"dbg"
        kernel.machine.cpu.bsp.debug_access_enabled = False
        with pytest.raises(DebugAccessError):
            attacker.debugger_probe(0x710000, 3)

    def test_memory_scan_finds_unerased_secret(self, kernel, attacker):
        kernel.machine.memory.write(0x720000, b"super-secret-key-material")
        hits = attacker.scan_memory_for(b"super-secret-key-material")
        assert 0x720000 in hits

    def test_memory_scan_clean_after_zeroize(self, kernel, attacker):
        kernel.machine.memory.write(0x730000, b"ephemeral-secret")
        kernel.machine.memory.zeroize(0x730000, 16)
        assert attacker.scan_memory_for(b"ephemeral-secret") == []


class TestBlobAttacks:
    def test_tamper_blob_flips_one_bit(self, kernel, attacker):
        from repro.tpm.structures import SealedBlob

        blob = SealedBlob(ciphertext=b"\x00" * 32, mac=b"\x01" * 20, bound_pcrs=(17,))
        tampered = attacker.tamper_blob(blob)
        assert tampered.ciphertext != blob.ciphertext
        diff = [i for i, (a, b) in enumerate(zip(blob.ciphertext, tampered.ciphertext)) if a != b]
        assert len(diff) == 1

    def test_replay_returns_blob_unchanged(self, attacker):
        from repro.tpm.structures import SealedBlob

        blob = SealedBlob(ciphertext=b"\x05" * 32, mac=b"\x06" * 20, bound_pcrs=())
        assert attacker.replay_blob(blob) is blob


class TestBlobAttacksAgainstRealTPM:
    """The storage attacks exercised against genuinely sealed data."""

    @pytest.fixture
    def driver(self, machine):
        from repro.osim.tpm_driver import OSTPMDriver

        return OSTPMDriver(machine.os_tpm_interface())

    def test_tampered_real_blob_is_rejected_by_unseal(self, driver, attacker):
        from repro.errors import TPMError

        blob = driver.seal(b"actual secret", {})
        assert driver.unseal(blob) == b"actual secret"  # sanity
        with pytest.raises(TPMError):
            driver.unseal(attacker.tamper_blob(blob))

    def test_replayed_real_blob_still_unseals(self, driver, attacker):
        """TPM-level replay *succeeds* — that is the §4.3.2 attack surface
        the NV-counter protocol exists to close."""
        old = driver.seal(b"state v1", {})
        driver.seal(b"state v2", {})  # the OS withholds the newer blob
        assert driver.unseal(attacker.replay_blob(old)) == b"state v1"


class MidSessionProbePAL(PAL):
    name = "mid-session-probe"
    modules = ()
    #: Set by the test: a zero-argument callable run inside the session.
    probe = None

    def run(self, ctx):
        type(self).probe()
        ctx.write_output(b"done")


class TestProbesDuringSKINITSession:
    """Regression: both hardware probe vectors must raise (and their
    ``*_checked`` variants must report blocked) while a session is live."""

    @pytest.fixture(autouse=True)
    def reset_probe(self):
        yield
        MidSessionProbePAL.probe = None

    def test_dma_probe_raises_mid_session(self, platform):
        from repro.errors import DMAProtectionError

        attacker = Attacker(platform.kernel)
        observed = {}

        def attack():
            base = platform.flicker.slb_base
            with pytest.raises(DMAProtectionError):
                attacker.dma_probe(base, 64)
            observed["checked"] = attacker.dma_probe_checked(base, 64)

        MidSessionProbePAL.probe = staticmethod(attack)
        platform.execute_pal(MidSessionProbePAL())
        result = observed["checked"]
        assert result.blocked and result.data == b""
        assert "DMAProtectionError" in result.error
        assert platform.machine.dev.blocked_attempts

    def test_debugger_probe_raises_mid_session(self, platform):
        from repro.errors import DebugAccessError

        attacker = Attacker(platform.kernel)
        observed = {}

        def attack():
            base = platform.flicker.slb_base
            with pytest.raises(DebugAccessError):
                attacker.debugger_probe(base, 64)
            observed["checked"] = attacker.debugger_probe_checked(base, 64)

        MidSessionProbePAL.probe = staticmethod(attack)
        platform.execute_pal(MidSessionProbePAL())
        result = observed["checked"]
        assert result.blocked and "DebugAccessError" in result.error

    def test_probes_permitted_again_after_session(self, platform):
        attacker = Attacker(platform.kernel)
        MidSessionProbePAL.probe = staticmethod(lambda: None)
        platform.execute_pal(MidSessionProbePAL())
        platform.machine.memory.write(0x740000, b"post-session")
        assert attacker.dma_probe(0x740000, 12) == b"post-session"
        checked = attacker.debugger_probe_checked(0x740000, 12)
        assert not checked.blocked and checked.data == b"post-session"
