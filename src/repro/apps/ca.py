"""Flicker-protected Certificate Authority (paper §6.3.2).

The CA's private signing key is generated inside a PAL, sealed to that
PAL, and only ever exists in cleartext during a Flicker session.  A
compromised server OS can submit malicious CSRs — which the PAL's access
control policy filters and its certificate database logs — but it can
never steal the key, so a discovered compromise costs certificate
revocations, not a CA key rollover.

Two PAL commands mirror the paper's two sessions:

* **keygen** — generate a 1024-bit RSA keypair from TPM randomness, seal
  the private key and an empty certificate database under PCR 17, output
  the public key (plus the sealed blobs for untrusted storage).
* **sign** — input a CSR, the sealed key, the sealed database, and the
  policy; unseal, enforce the policy, sign, append to the database,
  reseal it, and output the certificate and the new sealed database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.pal import PAL, PALContext
from repro.core.session import FlickerPlatform, SessionResult
from repro.crypto.pkcs1 import pkcs1_verify_sha1
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import PALRuntimeError
from repro.tpm.structures import SealedBlob

_CMD_KEYGEN = 0
_CMD_SIGN = 1
_CMD_AUDIT = 2
_CMD_REVOKE = 3


@dataclass(frozen=True)
class CertificateSigningRequest:
    """A CSR: the subject's name and public key."""

    subject: str
    public_key: RSAPublicKey

    def encode(self) -> bytes:
        name = self.subject.encode("utf-8")
        key = self.public_key.encode()
        return len(name).to_bytes(2, "big") + name + len(key).to_bytes(4, "big") + key

    @classmethod
    def decode(cls, data: bytes) -> "CertificateSigningRequest":
        name_len = int.from_bytes(data[:2], "big")
        subject = data[2 : 2 + name_len].decode("utf-8")
        off = 2 + name_len
        key_len = int.from_bytes(data[off : off + 4], "big")
        public_key = RSAPublicKey.decode(data[off + 4 : off + 4 + key_len])
        return cls(subject=subject, public_key=public_key)


@dataclass(frozen=True)
class Certificate:
    """A CA-issued certificate."""

    serial: int
    subject: str
    public_key: RSAPublicKey
    issuer_key: RSAPublicKey
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding."""
        return (
            b"FLICKER-CERT"
            + self.serial.to_bytes(8, "big")
            + len(self.subject.encode("utf-8")).to_bytes(2, "big")
            + self.subject.encode("utf-8")
            + self.public_key.encode()
        )

    def verify(self, issuer_key: RSAPublicKey) -> bool:
        """Check issuer identity and signature."""
        if self.issuer_key != issuer_key:
            return False
        return pkcs1_verify_sha1(issuer_key, self.tbs_bytes(), self.signature)

    def encode(self) -> bytes:
        tbs = self.tbs_bytes()
        issuer = self.issuer_key.encode()
        return (
            len(tbs).to_bytes(4, "big") + tbs
            + len(issuer).to_bytes(4, "big") + issuer
            + len(self.signature).to_bytes(4, "big") + self.signature
        )

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        tbs_len = int.from_bytes(data[:4], "big")
        tbs = data[4 : 4 + tbs_len]
        off = 4 + tbs_len
        issuer_len = int.from_bytes(data[off : off + 4], "big")
        issuer_key = RSAPublicKey.decode(data[off + 4 : off + 4 + issuer_len])
        off += 4 + issuer_len
        sig_len = int.from_bytes(data[off : off + 4], "big")
        signature = data[off + 4 : off + 4 + sig_len]
        # Parse the TBS fields back out.
        serial = int.from_bytes(tbs[12:20], "big")
        name_len = int.from_bytes(tbs[20:22], "big")
        subject = tbs[22 : 22 + name_len].decode("utf-8")
        public_key = RSAPublicKey.decode(tbs[22 + name_len :])
        return cls(
            serial=serial,
            subject=subject,
            public_key=public_key,
            issuer_key=issuer_key,
            signature=signature,
        )


@dataclass(frozen=True)
class SigningPolicy:
    """The administrator-supplied access-control policy on issuance."""

    allowed_suffixes: Tuple[str, ...] = (".example.com",)
    denied_subjects: Tuple[str, ...] = ()
    max_certificates: int = 1000

    def permits(self, subject: str, issued_so_far: int) -> bool:
        """Policy decision for one CSR."""
        if issued_so_far >= self.max_certificates:
            return False
        if subject in self.denied_subjects:
            return False
        return any(subject.endswith(suffix) for suffix in self.allowed_suffixes)

    def encode(self) -> bytes:
        allowed = "\x00".join(self.allowed_suffixes).encode("utf-8")
        denied = "\x00".join(self.denied_subjects).encode("utf-8")
        return (
            len(allowed).to_bytes(2, "big") + allowed
            + len(denied).to_bytes(2, "big") + denied
            + self.max_certificates.to_bytes(4, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "SigningPolicy":
        allowed_len = int.from_bytes(data[:2], "big")
        allowed = data[2 : 2 + allowed_len].decode("utf-8")
        off = 2 + allowed_len
        denied_len = int.from_bytes(data[off : off + 2], "big")
        denied = data[off + 2 : off + 2 + denied_len].decode("utf-8")
        off += 2 + denied_len
        max_certs = int.from_bytes(data[off : off + 4], "big")
        return cls(
            allowed_suffixes=tuple(s for s in allowed.split("\x00") if s),
            denied_subjects=tuple(s for s in denied.split("\x00") if s),
            max_certificates=max_certs,
        )


def _encode_db(serial: int, log: List[str]) -> bytes:
    entries = "\x00".join(log).encode("utf-8")
    return serial.to_bytes(8, "big") + len(entries).to_bytes(4, "big") + entries


def _decode_db(data: bytes) -> Tuple[int, List[str]]:
    serial = int.from_bytes(data[:8], "big")
    entries_len = int.from_bytes(data[8:12], "big")
    entries = data[12 : 12 + entries_len].decode("utf-8")
    return serial, [e for e in entries.split("\x00") if e]


class CertificateAuthorityPAL(PAL):
    """The CA's Flicker-protected core."""

    name = "flicker-ca"
    modules = ("secure_channel",)

    def run(self, ctx: PALContext) -> None:
        if not ctx.inputs:
            raise PALRuntimeError("CA PAL requires a command input")
        command = ctx.inputs[0]
        if command == _CMD_KEYGEN:
            self._keygen(ctx)
        elif command == _CMD_SIGN:
            self._sign(ctx)
        elif command == _CMD_AUDIT:
            self._audit(ctx)
        elif command == _CMD_REVOKE:
            self._revoke(ctx)
        else:
            raise PALRuntimeError(f"unknown CA-PAL command {command}")

    @staticmethod
    def _encode_state(private: RSAPrivateKey, serial: int, log: List[str]) -> bytes:
        key = private.encode()
        db = _encode_db(serial, log)
        return len(key).to_bytes(4, "big") + key + db

    @staticmethod
    def _decode_state(state: bytes):
        key_len = int.from_bytes(state[:4], "big")
        private = RSAPrivateKey.decode(state[4 : 4 + key_len])
        serial, log = _decode_db(state[4 + key_len :])
        return private, serial, log

    def _keygen(self, ctx: PALContext) -> None:
        keypair = ctx.crypto.rsa_keygen_1024()
        # The private key and the certificate database travel in ONE sealed
        # blob, so a signing session pays for a single Unseal (the paper's
        # §7.4.2 breakdown shows one Unseal dominating the 906 ms total).
        sealed = ctx.tpm.seal_to_pal(
            self._encode_state(keypair.private, 0, []), ctx.self_pcr17
        )
        pub = keypair.public.encode()
        state_blob = sealed.encode()
        ctx.write_output(
            len(pub).to_bytes(4, "big") + pub
            + len(state_blob).to_bytes(4, "big") + state_blob
        )

    def _sign(self, ctx: PALContext) -> None:
        payload = ctx.inputs[1:]
        state_len = int.from_bytes(payload[:4], "big")
        sealed_state = SealedBlob.decode(payload[4 : 4 + state_len])
        off = 4 + state_len
        csr_len = int.from_bytes(payload[off : off + 4], "big")
        csr = CertificateSigningRequest.decode(payload[off + 4 : off + 4 + csr_len])
        off += 4 + csr_len
        policy_len = int.from_bytes(payload[off : off + 4], "big")
        policy = SigningPolicy.decode(payload[off + 4 : off + 4 + policy_len])

        private, serial, log = self._decode_state(ctx.tpm.unseal(sealed_state))

        if not policy.permits(csr.subject, issued_so_far=len(log)):
            # Refusals are logged in the database too (audit trail), and
            # the state is resealed so the refusal is durable.
            log.append(f"DENIED:{csr.subject}")
            new_state = ctx.tpm.seal_to_pal(
                self._encode_state(private, serial, log), ctx.self_pcr17
            ).encode()
            ctx.write_output(b"\x00" + len(new_state).to_bytes(4, "big") + new_state)
            return

        serial += 1
        certificate = Certificate(
            serial=serial,
            subject=csr.subject,
            public_key=csr.public_key,
            issuer_key=private.public_key(),
            signature=b"",
        )
        signature = ctx.crypto.rsa_sign(private, certificate.tbs_bytes())
        certificate = Certificate(
            serial=serial,
            subject=csr.subject,
            public_key=csr.public_key,
            issuer_key=private.public_key(),
            signature=signature,
        )
        log.append(f"ISSUED:{serial}:{csr.subject}")
        new_state = ctx.tpm.seal_to_pal(
            self._encode_state(private, serial, log), ctx.self_pcr17
        ).encode()
        cert_blob = certificate.encode()
        ctx.write_output(
            b"\x01"
            + len(cert_blob).to_bytes(4, "big") + cert_blob
            + len(new_state).to_bytes(4, "big") + new_state
        )


    def _audit(self, ctx: PALContext) -> None:
        """Dump the in-PAL decision log (§6.3.2: the PAL "can log those
        creations" — and this is how the administrator reads the log with
        integrity: the log travels inside the sealed state)."""
        payload = ctx.inputs[1:]
        state_len = int.from_bytes(payload[:4], "big")
        sealed_state = SealedBlob.decode(payload[4 : 4 + state_len])
        _, _, log = self._decode_state(ctx.tpm.unseal(sealed_state))
        entries = "\x00".join(log).encode("utf-8")
        ctx.write_output(entries[:4000])  # the output page bounds the dump

    def _revoke(self, ctx: PALContext) -> None:
        """Revoke an issued certificate by serial (§6.3.2: "any
        certificates incorrectly created can be revoked").  The revocation
        is durable — it lives in the resealed state — and idempotent."""
        payload = ctx.inputs[1:]
        state_len = int.from_bytes(payload[:4], "big")
        sealed_state = SealedBlob.decode(payload[4 : 4 + state_len])
        serial = int.from_bytes(payload[4 + state_len : 12 + state_len], "big")

        private, max_serial, log = self._decode_state(ctx.tpm.unseal(sealed_state))
        issued = any(entry.startswith(f"ISSUED:{serial}:") for entry in log)
        already = f"REVOKED:{serial}" in log
        if issued and not already:
            log.append(f"REVOKED:{serial}")
            status = b"\x01"
        elif already:
            status = b"\x02"
        else:
            status = b"\x00"  # never issued
        new_state = ctx.tpm.seal_to_pal(
            self._encode_state(private, max_serial, log), ctx.self_pcr17
        ).encode()
        ctx.write_output(status + len(new_state).to_bytes(4, "big") + new_state)


class CertificateAuthority:
    """The untrusted-side CA service wrapping the PAL sessions."""

    def __init__(self, platform: FlickerPlatform, policy: Optional[SigningPolicy] = None,
                 pal: Optional[CertificateAuthorityPAL] = None) -> None:
        self.platform = platform
        self.policy = policy or SigningPolicy()
        self.pal = pal or CertificateAuthorityPAL()
        self.public_key: Optional[RSAPublicKey] = None
        self._sealed_state: Optional[bytes] = None
        self.last_session: Optional[SessionResult] = None

    def initialize(self) -> RSAPublicKey:
        """Run the keygen session; publishes the CA public key."""
        session = self.platform.execute_pal(self.pal, inputs=bytes([_CMD_KEYGEN]))
        self.last_session = session
        data = session.outputs
        pub_len = int.from_bytes(data[:4], "big")
        self.public_key = RSAPublicKey.decode(data[4 : 4 + pub_len])
        off = 4 + pub_len
        state_len = int.from_bytes(data[off : off + 4], "big")
        self._sealed_state = data[off + 4 : off + 4 + state_len]
        return self.public_key

    def sign(self, csr: CertificateSigningRequest) -> Optional[Certificate]:
        """Run one signing session; returns the certificate, or ``None``
        when the in-PAL policy refused the CSR."""
        if self._sealed_state is None:
            raise RuntimeError("CA not initialized")
        csr_blob = csr.encode()
        policy_blob = self.policy.encode()
        inputs = (
            bytes([_CMD_SIGN])
            + len(self._sealed_state).to_bytes(4, "big") + self._sealed_state
            + len(csr_blob).to_bytes(4, "big") + csr_blob
            + len(policy_blob).to_bytes(4, "big") + policy_blob
        )
        session = self.platform.execute_pal(self.pal, inputs=inputs)
        self.last_session = session
        data = session.outputs
        issued = data[0] == 1
        off = 1
        if issued:
            cert_len = int.from_bytes(data[off : off + 4], "big")
            certificate = Certificate.decode(data[off + 4 : off + 4 + cert_len])
            off += 4 + cert_len
        else:
            certificate = None
        state_len = int.from_bytes(data[off : off + 4], "big")
        self._sealed_state = data[off + 4 : off + 4 + state_len]
        return certificate

    def audit_log(self) -> List[str]:
        """Read the in-PAL decision log (one audit session)."""
        if self._sealed_state is None:
            raise RuntimeError("CA not initialized")
        inputs = (
            bytes([_CMD_AUDIT])
            + len(self._sealed_state).to_bytes(4, "big") + self._sealed_state
        )
        session = self.platform.execute_pal(self.pal, inputs=inputs)
        self.last_session = session
        return [e for e in session.outputs.decode("utf-8").split("\x00") if e]

    def revoke(self, serial: int) -> bool:
        """Revoke an issued certificate (one revocation session); returns
        whether the revocation took effect (False if never issued)."""
        if self._sealed_state is None:
            raise RuntimeError("CA not initialized")
        inputs = (
            bytes([_CMD_REVOKE])
            + len(self._sealed_state).to_bytes(4, "big") + self._sealed_state
            + serial.to_bytes(8, "big")
        )
        session = self.platform.execute_pal(self.pal, inputs=inputs)
        self.last_session = session
        status = session.outputs[0]
        state_len = int.from_bytes(session.outputs[1:5], "big")
        self._sealed_state = session.outputs[5 : 5 + state_len]
        return status in (1, 2)

    def revoked_serials(self) -> List[int]:
        """The CRL, derived from the audited decision log."""
        return [
            int(entry.split(":")[1])
            for entry in self.audit_log()
            if entry.startswith("REVOKED:")
        ]

    def certificate_valid(self, certificate: Certificate) -> bool:
        """Full relying-party check: signature plus revocation status."""
        if self.public_key is None:
            raise RuntimeError("CA not initialized")
        if not certificate.verify(self.public_key):
            return False
        return certificate.serial not in self.revoked_serials()
