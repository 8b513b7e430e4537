"""Multi-session scenarios: interleaving applications, reboots, and
long-running state (paper §4.3)."""

import pytest

from repro.core import PAL
from repro.errors import PALRuntimeError, TPMPolicyError
from repro.tpm.structures import SealedBlob


class CounterPAL(PAL):
    """Carries a counter across sessions via sealed storage."""

    name = "session-counter"
    modules = ("tpm_utils",)

    def run(self, ctx):
        if not ctx.inputs:
            value = 0
        else:
            blob = SealedBlob.decode(ctx.inputs)
            value = int.from_bytes(ctx.tpm.unseal(blob), "big")
        value += 1
        sealed = ctx.tpm.seal_to_pal(value.to_bytes(8, "big"), ctx.self_pcr17)
        ctx.write_output(value.to_bytes(8, "big") + sealed.encode())


class TestMultiSessionState:
    def test_counter_survives_many_sessions(self, platform):
        pal = CounterPAL()
        blob = b""
        for expected in range(1, 6):
            result = platform.execute_pal(pal, inputs=blob)
            value = int.from_bytes(result.outputs[:8], "big")
            assert value == expected
            blob = result.outputs[8:]

    def test_state_survives_reboot(self, platform):
        """Sealed blobs outlive reboots: the TPM's storage keys and NV are
        non-volatile, and the PAL relaunches into the same PCR-17 state."""
        pal = CounterPAL()
        result = platform.execute_pal(pal, inputs=b"")
        blob = result.outputs[8:]
        platform.machine.reboot()
        result2 = platform.execute_pal(pal, inputs=blob)
        assert int.from_bytes(result2.outputs[:8], "big") == 2

    def test_interleaved_applications_do_not_interfere(self, platform):
        from repro.apps.ca import CertificateAuthority, CertificateSigningRequest
        from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
        from repro.crypto.rsa import generate_rsa_keypair
        from repro.sim.rng import DeterministicRNG

        counter_pal = CounterPAL()
        ca = CertificateAuthority(platform)
        ca.initialize()
        server = SSHServer(platform)
        server.add_user(PasswdEntry.create("u", b"pw-123", b"sa1t"))
        client = SSHClient(platform)

        blob = platform.execute_pal(counter_pal, inputs=b"").outputs[8:]
        keys = generate_rsa_keypair(512, DeterministicRNG(8))
        cert = ca.sign(CertificateSigningRequest("a.example.com", keys.public))
        assert cert is not None
        assert client.connect_and_login(server, "u", b"pw-123").authenticated
        result = platform.execute_pal(counter_pal, inputs=blob)
        assert int.from_bytes(result.outputs[:8], "big") == 2
        cert2 = ca.sign(CertificateSigningRequest("b.example.com", keys.public))
        assert cert2.serial == cert.serial + 1

    def test_pal_code_update_orphans_old_blobs(self, platform):
        """Changing the PAL (a new 'version') changes its identity, so
        blobs sealed to the old version stay sealed — the paper's sealing
        semantics make code updates explicit state migrations."""

        class CounterPALv2(PAL):
            name = "session-counter"  # same name...
            modules = ("tpm_utils",)

            def run(self, ctx):  # ...but different logic
                blob = SealedBlob.decode(ctx.inputs)
                value = int.from_bytes(ctx.tpm.unseal(blob), "big")
                ctx.write_output(value.to_bytes(8, "big"))

        pal_v1 = CounterPAL()
        blob = platform.execute_pal(pal_v1, inputs=b"").outputs[8:]
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(CounterPALv2(), inputs=blob)


class TestRebootSemantics:
    def test_dynamic_pcrs_show_reboot(self, platform):
        platform.execute_pal(CounterPAL(), inputs=b"")
        platform.machine.reboot()
        assert platform.machine.tpm.pcrs.read(17) == b"\xff" * 20

    def test_blob_not_unsealable_outside_session_even_after_reboot(self, platform):
        result = platform.execute_pal(CounterPAL(), inputs=b"")
        blob = SealedBlob.decode(result.outputs[8:])
        platform.machine.reboot()
        with pytest.raises(TPMPolicyError):
            platform.tqd.driver.unseal(blob)


class TestManySessionsStability:
    def test_twenty_sessions_consistent_timing(self, platform):
        """Session cost does not drift as sessions accumulate."""

        class NopPAL(PAL):
            name = "nop"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"n")

        pal = NopPAL()
        durations = [platform.execute_pal(pal).total_ms for _ in range(20)]
        assert max(durations) - min(durations) < 0.5

    def test_trace_accumulates_in_order(self, platform):
        class NopPAL2(PAL):
            name = "nop2"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"n")

        for _ in range(3):
            platform.execute_pal(NopPAL2())
        skinits = platform.machine.trace.events(kind="skinit")
        assert len(skinits) == 3
        times = [e.time_ms for e in skinits]
        assert times == sorted(times)
