"""PAL-side secure-channel endpoint (``ctx.secure_channel``).

Implements the PAL half of §4.4.2: the first session generates an
asymmetric keypair inside Flicker protection, seals the private key to a
future invocation of the *same* PAL, and outputs the public key; a later
session unseals the key and decrypts messages the remote party encrypted
to it.  The remote-party half lives in :mod:`repro.core.secure_channel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import SecureChannelError
from repro.tpm.structures import SealedBlob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.pal import PALContext


def encode_channel_output(public: RSAPublicKey, sealed: SealedBlob) -> bytes:
    """Serialize the establish-session output: public key ‖ sealed key."""
    pub = public.encode()
    blob = sealed.encode()
    return (
        len(pub).to_bytes(4, "big") + pub
        + len(blob).to_bytes(4, "big") + blob
    )


def decode_channel_output(data: bytes) -> Tuple[RSAPublicKey, SealedBlob]:
    """Inverse of :func:`encode_channel_output`."""
    if len(data) < 8:
        raise SecureChannelError("truncated channel-establishment output")
    pub_len = int.from_bytes(data[:4], "big")
    public = RSAPublicKey.decode(data[4 : 4 + pub_len])
    off = 4 + pub_len
    blob_len = int.from_bytes(data[off : off + 4], "big")
    sealed = SealedBlob.decode(data[off + 4 : off + 4 + blob_len])
    if off + 4 + blob_len != len(data):
        raise SecureChannelError("trailing bytes in channel-establishment output")
    return public, sealed


class PALSecureChannelEndpoint:
    """The capability object PALs reach via ``ctx.secure_channel``."""

    def __init__(self, ctx: "PALContext") -> None:
        self._ctx = ctx

    def establish(self) -> bytes:
        """First Flicker session: generate K_PAL, seal K⁻¹_PAL to this
        PAL's own launch PCR-17 value, and return the output payload
        (public key + sealed private key) for ``ctx.write_output``.

        The sealed blob travels through untrusted storage — that is safe,
        because only this PAL, relaunched under Flicker, can unseal it."""
        ctx = self._ctx
        keypair = ctx.crypto.rsa_keygen_1024()
        sealed = ctx.tpm.seal_to_pal(keypair.private.encode(), ctx.self_pcr17)
        return encode_channel_output(keypair.public, sealed)

    def open(self, sdata: bytes, ciphertext: bytes) -> bytes:
        """Later Flicker session: recover K⁻¹_PAL from ``sdata`` (the
        sealed blob, handed back by untrusted code) and decrypt one
        message from the remote party.

        Raises :class:`SecureChannelError` on malformed input; the TPM
        itself refuses the unseal if the wrong PAL is running."""
        ctx = self._ctx
        try:
            sealed = SealedBlob.decode(sdata)
        except Exception as exc:
            raise SecureChannelError(f"bad sealed key data: {exc}") from exc
        private = RSAPrivateKey.decode(ctx.tpm.unseal(sealed))
        return ctx.crypto.rsa_decrypt(private, ciphertext)
