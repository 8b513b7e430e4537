"""PAL-side TPM driver and utilities (``ctx.tpm``).

Paper Figure 6 splits TPM support into a minimal memory-mapped-I/O driver
(216 LOC) and the utilities that implement useful operations over it:
GetCapability, PCR Read, PCR Extend, GetRandom, Seal, Unseal, and the
OIAP/OSAP session handling that authorizes Seal and Unseal.

The reproduction's equivalent wraps the locality-0
:class:`~repro.tpm.tpm.TPMInterface` with the same session plumbing the
OS-side driver uses, plus Flicker-specific conveniences: sealing data to a
*future PAL's* PCR-17 value (§4.3.1) and the end-of-session extends.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.sha1 import sha1
from repro.tpm.driver import TPMSessionDriver
from repro.tpm.structures import SealedBlob
from repro.tpm.tpm import TPMInterface

#: The PCR that records the Flicker session (reset by SKINIT, §2.3).
FLICKER_PCR = 17


class PALTPMInterface:
    """The TPM capability handed to PALs that link TPM modules.

    Linking only the minimal ``tpm_driver`` (Figure 6: 216 LOC) grants the
    unauthorized commands — PCR read/extend, GetRandom, GetCapability.
    The richer operations (Seal/Unseal, NV storage, counters) need the
    OIAP/OSAP machinery of ``tpm_utils`` (889 LOC) and raise
    :class:`PALRuntimeError` without it, mirroring the link-time split the
    paper's module inventory implies.
    """

    def __init__(self, interface: TPMInterface, utils_linked: bool = True) -> None:
        self._driver = TPMSessionDriver(interface, nonce_seed=b"pal-tpm-utils")
        self._utils_linked = utils_linked

    def _require_utils(self, operation: str) -> None:
        if not self._utils_linked:
            from repro.errors import PALRuntimeError

            raise PALRuntimeError(
                f"{operation} requires the 'tpm_utils' module; this PAL "
                "linked only 'tpm_driver'"
            )

    # -- basic operations -------------------------------------------------------

    def pcr_read(self, index: int = FLICKER_PCR) -> bytes:
        """TPM_PCRRead (defaults to PCR 17)."""
        return self._driver.pcr_read(index)

    def pcr_extend(self, measurement: bytes, index: int = FLICKER_PCR) -> bytes:
        """TPM_Extend (defaults to PCR 17)."""
        return self._driver.pcr_extend(index, measurement)

    def get_random(self, num_bytes: int) -> bytes:
        """TPM_GetRandom — the PAL's entropy source."""
        return self._driver.get_random(num_bytes)

    def get_capability(self) -> Dict[str, object]:
        """TPM_GetCapability."""
        return self._driver.interface.get_capability()

    # -- sealed storage ------------------------------------------------------------

    def seal_to_pal(self, data: bytes, pal_pcr17_value: bytes) -> SealedBlob:
        """Seal ``data`` so it unseals only when PCR 17 holds
        ``pal_pcr17_value`` — i.e. only inside a Flicker session of the
        intended PAL, before its output extends (§4.3.1)."""
        self._require_utils("TPM_Seal")
        return self._driver.seal(data, {FLICKER_PCR: pal_pcr17_value})

    def seal_to_policy(self, data: bytes, pcr_policy: Dict[int, bytes]) -> SealedBlob:
        """Seal to an arbitrary PCR policy.  TXT-launched sessions use this
        with a two-register policy — PCR 17 (SINIT ACM) *and* PCR 18 (MLE)
        — because on Intel hardware the PAL's identity spans both."""
        self._require_utils("TPM_Seal")
        return self._driver.seal(data, pcr_policy)

    def seal(self, data: bytes, pcr_policy: Dict[int, bytes]) -> SealedBlob:
        """General TPM_Seal with an explicit PCR policy."""
        self._require_utils("TPM_Seal")
        return self._driver.seal(data, pcr_policy)

    def unseal(self, blob: SealedBlob) -> bytes:
        """TPM_Unseal; the TPM enforces the blob's PCR policy against the
        live PCR values of *this* session."""
        self._require_utils("TPM_Unseal")
        return self._driver.unseal(blob)

    # -- NV storage & counters (replay protection, §4.3.2) ----------------------------

    def nv_read(self, index: int) -> bytes:
        """TPM_NV_ReadValue."""
        self._require_utils("TPM_NV_ReadValue")
        return self._driver.nv_read(index)

    def nv_write(self, index: int, data: bytes) -> None:
        """TPM_NV_WriteValue."""
        self._require_utils("TPM_NV_WriteValue")
        self._driver.nv_write(index, data)

    def define_nv_space(self, index: int, size: int, owner_auth: bytes,
                        read_pcr_policy: Optional[Dict[int, bytes]] = None,
                        write_pcr_policy: Optional[Dict[int, bytes]] = None):
        """TPM_NV_DefineSpace — needs the 20-byte owner authorization,
        which a remote party can deliver over a secure channel (§4.3.2)."""
        self._require_utils("TPM_NV_DefineSpace")
        return self._driver.define_nv_space(
            index, size, owner_auth, read_pcr_policy, write_pcr_policy
        )

    def create_counter(self, label: bytes, owner_auth: bytes) -> int:
        """Create a monotonic counter (owner-authorized)."""
        self._require_utils("TPM_CreateCounter")
        return self._driver.create_counter(label, owner_auth)

    def increment_counter(self, counter_id: int) -> int:
        """TPM_IncrementCounter."""
        self._require_utils("TPM_IncrementCounter")
        return self._driver.increment_counter(counter_id)

    def read_counter(self, counter_id: int) -> int:
        """TPM_ReadCounter."""
        self._require_utils("TPM_ReadCounter")
        return self._driver.read_counter(counter_id)

    # -- measurement helpers ------------------------------------------------------------

    @staticmethod
    def measure(data: bytes) -> bytes:
        """SHA-1 measurement of arbitrary data (no TPM round-trip)."""
        return sha1(data)
