"""Platform Configuration Registers.

TPM v1.2 mandates at least 24 PCRs (paper §2.1).  PCRs 0–16 are *static*:
only a platform reboot resets them (to all zeros).  PCRs 17–23 are
*dynamic*: a reboot sets them to −1 (all 0xFF bytes) so a verifier can
distinguish "rebooted" from "dynamically reset", and only a hardware
command issued by the CPU during SKINIT can reset them to zero (§2.3).
Software can *extend* any PCR but can never write one directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.crypto.sha1 import sha1
from repro.errors import TPMError

#: Number of PCRs in a v1.2 TPM.
PCR_COUNT = 24

#: Indices of the dynamically resettable PCRs.
DYNAMIC_PCRS = tuple(range(17, 24))

#: Digest size of the measurement hash (SHA-1).
DIGEST_SIZE = 20

#: Value of a static PCR after reboot.
PCR_STATIC_BOOT_VALUE = b"\x00" * DIGEST_SIZE

#: Value of a dynamic PCR after reboot (-1: distinguishes reboot from the
#: SKINIT-triggered reset to zero).
PCR_DYNAMIC_BOOT_VALUE = b"\xff" * DIGEST_SIZE

#: Value of a dynamic PCR after the CPU's hardware reset command.
PCR_DYNAMIC_RESET_VALUE = b"\x00" * DIGEST_SIZE


def extend_value(old: bytes, measurement: bytes) -> bytes:
    """The TPM extend operation: SHA-1(old ‖ measurement)."""
    if len(old) != DIGEST_SIZE:
        raise TPMError("PCR value must be 20 bytes")
    if len(measurement) != DIGEST_SIZE:
        raise TPMError("measurement must be a 20-byte SHA-1 digest")
    return sha1(old + measurement)


def simulate_extend_chain(initial: bytes, measurements: Iterable[bytes]) -> bytes:
    """Fold a sequence of measurements into a PCR starting from ``initial``.

    Verifiers use this to recompute the expected final PCR-17 value from an
    event log (paper §4.4.1).
    """
    value = initial
    for m in measurements:
        value = extend_value(value, m)
    return value


class PCRBank:
    """The TPM's bank of 24 PCRs with v1.2 reset semantics."""

    def __init__(self) -> None:
        self._values: List[bytes] = []
        self.reboot()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < PCR_COUNT:
            raise TPMError(f"PCR index {index} out of range 0..{PCR_COUNT - 1}")

    def export_values(self) -> List[bytes]:
        """All PCR values in index order (the vTPM migration snapshot)."""
        return list(self._values)

    def restore_values(self, values: List[bytes]) -> None:
        """Install a full bank of values (the inverse of
        :meth:`export_values`)."""
        if len(values) != PCR_COUNT:
            raise TPMError(f"a PCR snapshot must hold {PCR_COUNT} values")
        for value in values:
            if len(value) != DIGEST_SIZE:
                raise TPMError("PCR value must be 20 bytes")
        self._values = [bytes(v) for v in values]

    def reboot(self) -> None:
        """Platform reset: static PCRs to 0, dynamic PCRs to −1."""
        self._values = [
            PCR_DYNAMIC_BOOT_VALUE if i in DYNAMIC_PCRS else PCR_STATIC_BOOT_VALUE
            for i in range(PCR_COUNT)
        ]

    def dynamic_reset(self) -> None:
        """The hardware command the CPU issues during SKINIT: dynamic PCRs
        to zero.  Callers must have verified locality; software paths in
        :class:`repro.tpm.tpm.TPM` enforce that."""
        for i in DYNAMIC_PCRS:
            self._values[i] = PCR_DYNAMIC_RESET_VALUE

    def read(self, index: int) -> bytes:
        """Current value of PCR ``index``."""
        self._check_index(index)
        return self._values[index]

    def extend(self, index: int, measurement: bytes) -> bytes:
        """Extend PCR ``index`` with a 20-byte measurement; returns the new
        value."""
        self._check_index(index)
        self._values[index] = extend_value(self._values[index], measurement)
        return self._values[index]

    def snapshot(self, indices: Iterable[int]) -> Dict[int, bytes]:
        """Copy of selected PCR values (used to build composites)."""
        return {i: self.read(i) for i in indices}
