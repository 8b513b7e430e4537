"""Certificate-authority application tests (paper §6.3.2, §7.4.2)."""

import pytest

from repro.apps.ca import (
    Certificate,
    CertificateAuthority,
    CertificateSigningRequest,
    SigningPolicy,
)
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def ca(platform):
    authority = CertificateAuthority(platform)
    authority.initialize()
    return authority


@pytest.fixture
def subject_keys():
    return generate_rsa_keypair(512, DeterministicRNG(2024))


def csr_for(subject, keys):
    return CertificateSigningRequest(subject=subject, public_key=keys.public)


class TestEncodings:
    def test_csr_roundtrip(self, subject_keys):
        csr = csr_for("www.example.com", subject_keys)
        assert CertificateSigningRequest.decode(csr.encode()) == csr

    def test_policy_roundtrip(self):
        policy = SigningPolicy(
            allowed_suffixes=(".example.com", ".example.org"),
            denied_subjects=("bad.example.com",),
            max_certificates=42,
        )
        assert SigningPolicy.decode(policy.encode()) == policy

    def test_certificate_roundtrip(self, ca, subject_keys):
        cert = ca.sign(csr_for("www.example.com", subject_keys))
        assert Certificate.decode(cert.encode()) == cert


class TestIssuance:
    def test_issue_and_verify(self, ca, subject_keys):
        cert = ca.sign(csr_for("www.example.com", subject_keys))
        assert cert is not None
        assert cert.subject == "www.example.com"
        assert cert.public_key == subject_keys.public
        assert cert.verify(ca.public_key)

    def test_serials_increment(self, ca, subject_keys):
        c1 = ca.sign(csr_for("a.example.com", subject_keys))
        c2 = ca.sign(csr_for("b.example.com", subject_keys))
        assert (c1.serial, c2.serial) == (1, 2)

    def test_certificate_fails_against_other_key(self, ca, subject_keys):
        cert = ca.sign(csr_for("www.example.com", subject_keys))
        other = generate_rsa_keypair(512, DeterministicRNG(9))
        assert not cert.verify(other.public)

    def test_tampered_certificate_rejected(self, ca, subject_keys):
        from dataclasses import replace

        cert = ca.sign(csr_for("www.example.com", subject_keys))
        forged = replace(cert, subject="evil.example.com")
        assert not forged.verify(ca.public_key)


class TestPolicy:
    def test_disallowed_suffix_denied(self, ca, subject_keys):
        assert ca.sign(csr_for("www.attacker.net", subject_keys)) is None

    def test_denied_subject(self, platform, subject_keys):
        authority = CertificateAuthority(
            platform,
            policy=SigningPolicy(denied_subjects=("blocked.example.com",)),
        )
        authority.initialize()
        assert authority.sign(csr_for("blocked.example.com", subject_keys)) is None
        assert authority.sign(csr_for("ok.example.com", subject_keys)) is not None

    def test_max_certificates_enforced(self, platform, subject_keys):
        authority = CertificateAuthority(
            platform, policy=SigningPolicy(max_certificates=2)
        )
        authority.initialize()
        assert authority.sign(csr_for("a.example.com", subject_keys)) is not None
        assert authority.sign(csr_for("b.example.com", subject_keys)) is not None
        assert authority.sign(csr_for("c.example.com", subject_keys)) is None

    def test_denials_logged_count_against_nothing(self, platform, subject_keys):
        """A denial reseals the DB (audit) but does not consume serials."""
        authority = CertificateAuthority(platform)
        authority.initialize()
        authority.sign(csr_for("evil.net", subject_keys))
        cert = authority.sign(csr_for("fine.example.com", subject_keys))
        assert cert.serial == 1


class TestKeySecrecy:
    def test_signing_key_never_in_cleartext_memory_after_session(self, ca, platform, subject_keys):
        """The sealed-state plaintext starts with the private-key encoding,
        whose first bytes are the (public) modulus — so if the plaintext
        leaked anywhere, scanning for the modulus bytes would find it.
        The modulus legitimately appears in the *output page* (inside the
        issued certificate), so hits there are excluded."""
        from repro.core.layout import PARAM_PAGE_SIZE, SLBLayout

        ca.sign(csr_for("www.example.com", subject_keys))
        layout = SLBLayout(base=platform.flicker.slb_base)
        n_bytes = ca.public_key.n.to_bytes(ca.public_key.modulus_bytes, "big")
        hits = [
            addr
            for addr in platform.machine.memory.find_bytes(n_bytes)
            if not layout.output_page <= addr < layout.output_page + PARAM_PAGE_SIZE
        ]
        assert hits == []

    def test_os_cannot_unseal_signing_key(self, ca, platform):
        from repro.errors import TPMPolicyError
        from repro.tpm.structures import SealedBlob

        with pytest.raises(TPMPolicyError):
            platform.tqd.driver.unseal(SealedBlob.decode(ca._sealed_state))

    def test_sign_before_initialize_rejected(self, platform, subject_keys):
        authority = CertificateAuthority(platform)
        with pytest.raises(RuntimeError):
            authority.sign(csr_for("x.example.com", subject_keys))


class TestAuditAndRevocation:
    def test_audit_log_records_decisions(self, ca, subject_keys):
        ca.sign(csr_for("a.example.com", subject_keys))
        ca.sign(csr_for("evil.net", subject_keys))  # denied
        log = ca.audit_log()
        assert any(entry.startswith("ISSUED:1:") for entry in log)
        assert "DENIED:evil.net" in log

    def test_revoke_issued_certificate(self, ca, subject_keys):
        cert = ca.sign(csr_for("a.example.com", subject_keys))
        assert ca.certificate_valid(cert)
        assert ca.revoke(cert.serial)
        assert not ca.certificate_valid(cert)
        # The signature itself still verifies — revocation is a CRL fact.
        assert cert.verify(ca.public_key)

    def test_revoke_unknown_serial_refused(self, ca, subject_keys):
        ca.sign(csr_for("a.example.com", subject_keys))
        assert not ca.revoke(999)

    def test_revocation_is_idempotent_and_durable(self, ca, subject_keys):
        cert = ca.sign(csr_for("a.example.com", subject_keys))
        assert ca.revoke(cert.serial)
        assert ca.revoke(cert.serial)  # already revoked: still "in effect"
        assert ca.revoked_serials() == [cert.serial]

    def test_other_certificates_unaffected(self, ca, subject_keys):
        c1 = ca.sign(csr_for("a.example.com", subject_keys))
        c2 = ca.sign(csr_for("b.example.com", subject_keys))
        ca.revoke(c1.serial)
        assert not ca.certificate_valid(c1)
        assert ca.certificate_valid(c2)

    def test_compromise_recovery_story(self, ca, platform, subject_keys):
        """§6.3.2's argument: a compromised OS submits a malicious CSR the
        policy happens to allow; once discovered, the bad certificate is
        revoked — no CA key rollover needed, because the key never leaked."""
        rogue = ca.sign(csr_for("rogue.example.com", subject_keys))
        assert rogue is not None  # the attack "succeeded"
        assert any(f"ISSUED:{rogue.serial}:" in e for e in ca.audit_log())
        ca.revoke(rogue.serial)
        assert not ca.certificate_valid(rogue)
        # The CA key remains trustworthy: new issuance continues.
        clean = ca.sign(csr_for("clean.example.com", subject_keys))
        assert ca.certificate_valid(clean)


class TestTimings:
    def test_signing_latency_matches_section742(self, ca, subject_keys):
        """§7.4.2: one CSR signing averages ≈906.2 ms (Unseal-dominated)."""
        platform = ca.platform
        before = platform.machine.clock.now()
        ca.sign(csr_for("timed.example.com", subject_keys))
        elapsed = platform.machine.clock.now() - before
        assert elapsed == pytest.approx(906.2, rel=0.15)

    def test_unseal_dominates(self, ca, subject_keys):
        ca.sign(csr_for("www.example.com", subject_keys))
        session = ca.last_session
        assert session.tpm_ms["unseal"] > 0.8 * session.total_ms
