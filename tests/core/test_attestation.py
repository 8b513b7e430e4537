"""Attestation and verification tests (paper §4.4.1)."""

from dataclasses import replace

import pytest

from repro.core import PAL
from repro.core.attestation import (
    BOTTOM_MEASUREMENT,
    SENTINEL_MEASUREMENT,
    expected_pcr17,
    io_measurement,
)
from repro.crypto.sha1 import sha1
from repro.errors import AttestationError


class AttestedPAL(PAL):
    name = "attested"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"attested-output")


class ExtendingPAL(PAL):
    name = "extending"
    modules = ("tpm_driver",)

    def run(self, ctx):
        ctx.tpm.pcr_extend(sha1(b"pal-chose-this"))
        ctx.write_output(b"x")


NONCE = bytes(range(20))


@pytest.fixture
def attested(platform):
    pal = AttestedPAL()
    session = platform.execute_pal(pal, inputs=b"in", nonce=NONCE)
    attestation = platform.attest(NONCE, session)
    return platform, session, attestation


class TestIOMeasurement:
    def test_deterministic(self):
        assert io_measurement(b"a", b"b", b"n" * 20) == io_measurement(b"a", b"b", b"n" * 20)

    def test_no_aliasing_across_boundary(self):
        """(in="ab", out="c") must differ from (in="a", out="bc")."""
        assert io_measurement(b"ab", b"c", b"\x00" * 20) != io_measurement(
            b"a", b"bc", b"\x00" * 20
        )

    def test_nonce_included(self):
        assert io_measurement(b"a", b"b", b"\x01" * 20) != io_measurement(
            b"a", b"b", b"\x02" * 20
        )


class TestHappyPath:
    def test_valid_attestation_verifies(self, attested):
        platform, session, attestation = attested
        report = platform.verifier().verify(attestation, session.image, NONCE)
        assert report.ok, report.failures

    def test_quoted_pcr_matches_expected_chain(self, attested):
        platform, session, attestation = attested
        expected = expected_pcr17(session.image, b"in", b"attested-output", NONCE)
        assert attestation.quote.composite.as_dict()[17] == expected

    def test_event_log_reproduces_pcr(self, attested):
        platform, session, attestation = attested
        from repro.tpm.pcr import simulate_extend_chain

        replayed = simulate_extend_chain(
            b"\x00" * 20, [d for _, d in attestation.event_log]
        )
        assert replayed == attestation.quote.composite.as_dict()[17]

    def test_expected_inputs_check(self, attested):
        platform, session, attestation = attested
        good = platform.verifier().verify(
            attestation, session.image, NONCE, expected_inputs=b"in"
        )
        assert good.ok
        bad = platform.verifier().verify(
            attestation, session.image, NONCE, expected_inputs=b"other"
        )
        assert not bad.ok

    def test_pal_extends_participate(self, platform):
        pal = ExtendingPAL()
        session = platform.execute_pal(pal, inputs=b"", nonce=NONCE)
        attestation = platform.attest(NONCE, session)
        report = platform.verifier().verify(
            attestation, session.image, NONCE,
            pal_extends=[sha1(b"pal-chose-this")],
        )
        assert report.ok, report.failures
        # Without declaring the PAL's extend, the chain cannot match.
        report2 = platform.verifier().verify(attestation, session.image, NONCE)
        assert not report2.ok


class TestForgeryRejection:
    def test_wrong_nonce_rejected(self, attested):
        platform, session, attestation = attested
        report = platform.verifier().verify(attestation, session.image, b"\x99" * 20)
        assert not report.ok
        assert any("nonce" in f for f in report.failures)

    def test_replayed_quote_with_patched_nonce_rejected(self, attested):
        """An OS that re-labels an old quote with a fresh nonce fails the
        signature check."""
        platform, session, attestation = attested
        fresh_nonce = b"\x77" * 20
        forged = replace(attestation, nonce=fresh_nonce,
                         quote=replace(attestation.quote, nonce=fresh_nonce))
        report = platform.verifier().verify(forged, session.image, fresh_nonce)
        assert not report.ok

    def test_tampered_outputs_rejected(self, attested):
        platform, session, attestation = attested
        forged = replace(attestation, outputs=b"forged-output")
        report = platform.verifier().verify(forged, session.image, NONCE)
        assert not report.ok
        assert any("PCR 17" in f for f in report.failures)

    def test_tampered_inputs_rejected(self, attested):
        platform, session, attestation = attested
        forged = replace(attestation, inputs=b"forged-input")
        report = platform.verifier().verify(forged, session.image, NONCE)
        assert not report.ok

    def test_wrong_pal_image_rejected(self, attested):
        platform, session, attestation = attested

        class OtherPAL(PAL):
            name = "other"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"attested-output")

        other_image = platform.build(OtherPAL())
        report = platform.verifier().verify(attestation, other_image, NONCE)
        assert not report.ok

    def test_foreign_privacy_ca_rejected(self, attested):
        from repro.core.attestation import FlickerVerifier
        from repro.sim.rng import DeterministicRNG
        from repro.tpm.privacy_ca import PrivacyCA

        platform, session, attestation = attested
        rogue_ca = PrivacyCA(DeterministicRNG(1000))
        verifier = FlickerVerifier(rogue_ca.public_key)
        report = verifier.verify(attestation, session.image, NONCE)
        assert not report.ok
        assert any("Privacy CA" in f for f in report.failures)

    def test_tampered_event_log_detected(self, attested):
        platform, session, attestation = attested
        forged_log = tuple(list(attestation.event_log[:-1]) + [("sentinel", b"\x00" * 20)])
        forged = replace(attestation, event_log=forged_log)
        report = platform.verifier().verify(forged, session.image, NONCE)
        assert not report.ok
        assert any("event log" in f for f in report.failures)

    def test_require_raises(self, attested):
        platform, session, attestation = attested
        forged = replace(attestation, outputs=b"bad")
        report = platform.verifier().verify(forged, session.image, NONCE)
        with pytest.raises(AttestationError):
            report.require()


class TestSessionRecordClosure:
    def test_post_session_extends_cannot_impersonate_pal(self, attested):
        """§4.4.1: after the sentinel, other software extending PCR 17
        cannot produce a value the verifier would attribute to the PAL."""
        platform, session, attestation = attested
        driver = platform.tqd.driver
        driver.pcr_extend(17, sha1(b"malicious post-session extend"))
        late = platform.attest(NONCE, session)
        report = platform.verifier().verify(late, session.image, NONCE)
        assert not report.ok

    def test_sentinel_differs_from_bottom(self):
        assert SENTINEL_MEASUREMENT != BOTTOM_MEASUREMENT

    def test_sentinel_revokes_sealed_access(self, platform):
        """Data sealed to the PAL's launch value is unsealable during the
        session but not after the sentinel extend."""
        from repro.errors import TPMPolicyError

        class SealingPAL(PAL):
            name = "sealer"
            modules = ("tpm_utils",)

            def run(self, ctx):
                blob = ctx.tpm.seal_to_pal(b"session secret", ctx.self_pcr17)
                ctx.write_output(blob.encode())

        session = platform.execute_pal(SealingPAL())
        from repro.tpm.structures import SealedBlob

        blob = SealedBlob.decode(session.outputs)
        # The OS (post-session, post-sentinel) cannot unseal.
        with pytest.raises(TPMPolicyError):
            platform.tqd.driver.unseal(blob)
