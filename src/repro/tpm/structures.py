"""TPM data structures: PCR composites, quotes, and sealed blobs.

The encodings are deterministic and self-describing rather than
byte-compatible with the TCG specification — the paper's protocols depend
on *what* is signed/bound, not on TCG wire formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.crypto.rsa import RSAPublicKey
from repro.crypto.sha1 import sha1
from repro.errors import TPMError

_QUOTE_FIXED = b"\x01\x01\x00\x00QUOT"  # version 1.1, ordinal "QUOT"


@dataclass(frozen=True)
class PCRComposite:
    """A selection of PCR indices together with their values."""

    values: Tuple[Tuple[int, bytes], ...]  # sorted (index, value) pairs

    @classmethod
    def from_mapping(cls, mapping: Dict[int, bytes]) -> "PCRComposite":
        """Build a composite from an index→value mapping."""
        for index, value in mapping.items():
            if len(value) != 20:
                raise TPMError(f"PCR {index} value must be 20 bytes")
        return cls(values=tuple(sorted(mapping.items())))

    def encode(self) -> bytes:
        """TPM_PCR_COMPOSITE-style encoding: selection then values."""
        selection = b"".join(index.to_bytes(2, "big") for index, _ in self.values)
        blob = b"".join(value for _, value in self.values)
        return (
            len(self.values).to_bytes(2, "big")
            + selection
            + len(blob).to_bytes(4, "big")
            + blob
        )

    def digest(self) -> bytes:
        """SHA-1 of the composite encoding (what the quote signs)."""
        return sha1(self.encode())

    def as_dict(self) -> Dict[int, bytes]:
        """The composite as a plain mapping."""
        return dict(self.values)


@dataclass(frozen=True)
class Quote:
    """A TPM quote: AIK signature over (composite digest, nonce).

    Verification is a *pure* function of the quote and the AIK public key —
    the verifier needs no access to the TPM (paper §4.4.1).
    """

    composite: PCRComposite
    nonce: bytes
    signature: bytes
    aik_public: RSAPublicKey

    @staticmethod
    def quote_info(composite: PCRComposite, nonce: bytes) -> bytes:
        """The TPM_QUOTE_INFO structure that the AIK signs."""
        if len(nonce) != 20:
            raise TPMError("quote nonce must be 20 bytes (a SHA-1 digest)")
        return _QUOTE_FIXED + composite.digest() + nonce

    def verify(self, expected_aik: RSAPublicKey) -> bool:
        """Check the signature and that it was made by ``expected_aik``."""
        from repro.crypto.pkcs1 import pkcs1_verify_sha1

        if self.aik_public != expected_aik:
            return False
        info = self.quote_info(self.composite, self.nonce)
        return pkcs1_verify_sha1(expected_aik, info, self.signature)


@dataclass(frozen=True)
class SealedBlob:
    """Opaque output of TPM_Seal, handled by *untrusted* software.

    The payload is encrypted and MACed under keys that never leave the TPM;
    ``pcr_policy`` records digestAtRelease — the PCR values required at
    Unseal time.  Untrusted code can store, copy, and (crucially, for the
    replay-attack discussion in §4.3.2) *replay* old blobs, but cannot read
    or undetectably modify them.
    """

    ciphertext: bytes
    mac: bytes
    #: PCR indices the blob is bound to (values live inside the ciphertext;
    #: duplicated here only for diagnostics/pretty-printing).
    bound_pcrs: Tuple[int, ...]

    def authenticated_bytes(self) -> bytes:
        """Everything the MAC must cover: the full framing minus the MAC.

        The fuzzer found (tests/fuzz/corpus/seal-header-tamper.json) that a
        MAC over the ciphertext alone lets untrusted code rewrite the header
        — e.g. the bound-PCR diagnostics — without detection, so the TPM
        MACs the encoded blob up to (but excluding) the MAC field itself.
        """
        pcrs = b"".join(i.to_bytes(2, "big") for i in self.bound_pcrs)
        return (
            len(self.bound_pcrs).to_bytes(2, "big") + pcrs
            + len(self.ciphertext).to_bytes(4, "big") + self.ciphertext
        )

    def encode(self) -> bytes:
        """Serialize for storage by the untrusted OS."""
        return self.authenticated_bytes() + self.mac

    @classmethod
    def decode(cls, data: bytes) -> "SealedBlob":
        """Parse a blob produced by :meth:`encode`."""
        if len(data) < 6:
            raise TPMError("truncated sealed blob")
        count = int.from_bytes(data[:2], "big")
        off = 2
        pcrs = []
        for _ in range(count):
            pcrs.append(int.from_bytes(data[off : off + 2], "big"))
            off += 2
        ct_len = int.from_bytes(data[off : off + 4], "big")
        off += 4
        ciphertext = data[off : off + ct_len]
        mac = data[off + ct_len :]
        if len(ciphertext) != ct_len or len(mac) != 20:
            raise TPMError("malformed sealed blob")
        return cls(ciphertext=ciphertext, mac=mac, bound_pcrs=tuple(pcrs))
