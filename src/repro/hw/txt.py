"""Intel TXT late launch: GETSEC[SENTER].

Paper §2.4: "Intel offers similar capabilities with their Trusted
eXecution Technology (TXT, formerly LaGrande Technology) … Intel's TXT
technology functions analogously."  The reproduction includes the TXT
variant so the claim is demonstrable, with the architectural differences
that matter modelled:

* SENTER does not jump directly to user code: it first loads an
  *Authenticated Code Module* (the SINIT ACM) whose signature must verify
  against the Intel public key fused into the chipset; the ACM then
  launches the *Measured Launch Environment* (MLE) — the TXT analogue of
  the SLB.
* Measurements land in two registers: the SINIT ACM's identity is
  extended into PCR 17 and the MLE's into PCR 18 (the DRTM layout of the
  TXT specification), so a TXT verifier checks a two-register composite
  where an SVM verifier checks one.
* The same protections engage: DMA is blocked (Intel's analogue of the
  DEV is VT-d protected ranges; we reuse the machine's DEV), interrupts
  and debug access are disabled, and the APs must have taken INIT.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.crypto.pkcs1 import pkcs1_sign_sha1, pkcs1_verify_sha1
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, generate_rsa_keypair
from repro.crypto.sha1 import sha1
from repro.errors import SkinitError, SLBFormatError
from repro.hw.memory import PAGE_SIZE
from repro.sim.rng import DeterministicRNG

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.hw.machine import Machine

#: PCR receiving the SINIT ACM measurement.
ACM_PCR = 17

#: PCR receiving the MLE measurement.
MLE_PCR = 18

#: Size of the region SENTER protects around the MLE (as for SKINIT).
MLE_REGION_SIZE = 64 * 1024


class SINITModule:
    """An SINIT Authenticated Code Module: chipset-specific launch code
    signed by Intel."""

    def __init__(self, code: bytes, signature: bytes, signer: RSAPublicKey) -> None:
        self.code = code
        self.signature = signature
        self.signer = signer

    @property
    def measurement(self) -> bytes:
        """SHA-1 identity of the ACM code."""
        return sha1(self.code)

    def verify(self, chipset_key: RSAPublicKey) -> bool:
        """The processor's check before executing any ACM byte."""
        if self.signer != chipset_key:
            return False
        return pkcs1_verify_sha1(chipset_key, self.code, self.signature)


class IntelACMAuthority:
    """Stand-in for Intel's ACM signing infrastructure.

    One instance per simulated chipset generation: its public key is
    "fused" into the chipset, and only ACMs it signed will SENTER.
    """

    def __init__(self, seed: int = 0x1A7E1) -> None:
        self._keys: RSAKeyPair = generate_rsa_keypair(
            512, DeterministicRNG(seed).fork("intel-acm")
        )

    @property
    def public_key(self) -> RSAPublicKey:
        """The chipset-fused verification key."""
        return self._keys.public

    def sign_acm(self, code: bytes) -> SINITModule:
        """Produce a production-signed SINIT module."""
        return SINITModule(
            code=code,
            signature=pkcs1_sign_sha1(self._keys.private, code),
            signer=self._keys.public,
        )


def senter(machine: "Machine", core_id: int, acm: SINITModule, mle_base: int) -> Any:
    """Execute GETSEC[SENTER]: authenticate the ACM, engage protections,
    measure ACM and MLE, and jump into the MLE.

    Mirrors :func:`repro.hw.skinit.skinit` with TXT's two-stage launch.
    The MLE at ``mle_base`` uses the same header format as an SLB (16-bit
    length and entry words) and dispatches through the machine's
    executable registry keyed on the MLE measurement.
    """
    core = machine.cpu.cores[core_id]
    core.require_ring(0, "GETSEC[SENTER]")
    if not core.is_bsp:
        raise SkinitError("SENTER can only be run on the bootstrap processor (ILP)")
    if not machine.cpu.all_aps_quiesced():
        raise SkinitError("SENTER rendezvous failed: APs not idle with INIT received")
    if mle_base % PAGE_SIZE:
        raise SkinitError(f"MLE base {mle_base:#x} is not page aligned")

    # Stage 1: the processor authenticates the ACM before running it.
    chipset_key = machine.intel_acm_key
    if chipset_key is None:
        raise SkinitError("this machine's chipset has no TXT support (no ACM key)")
    if not acm.verify(chipset_key):
        raise SkinitError("SINIT ACM signature rejected by the chipset")

    from repro.hw.skinit import parse_slb_header

    header = machine.memory.read(mle_base, 4)
    length, entry = parse_slb_header(header)
    if length < 4 or length > MLE_REGION_SIZE:
        raise SLBFormatError(f"MLE length {length} outside 4..{MLE_REGION_SIZE}")
    if entry >= length:
        raise SLBFormatError("MLE entry point outside measured region")

    # Protections (VT-d ranges modelled via the DEV, as for SVM).
    machine.dev.protect_range(mle_base, MLE_REGION_SIZE)
    core.interrupts_enabled = False
    core.debug_access_enabled = False
    core.paging_enabled = False
    core.ring = 0

    # Measurements: ACM → PCR 17, MLE → PCR 18.
    machine.cpu_tpm_interface.dynamic_pcr_reset()
    machine.tpm.pcrs.extend(ACM_PCR, acm.measurement)
    mle_bytes = machine.memory.read(mle_base, length)
    mle_measurement = sha1(mle_bytes)
    machine.tpm.pcrs.extend(MLE_PCR, mle_measurement)

    # Cost: the ACM plus the MLE stream to the TPM (same transfer-rate
    # model as SKINIT; TXT-era chipsets were comparable).
    with machine.clock.span("senter"):
        machine.clock.advance(
            machine.profile.tpm.skinit_ms(len(acm.code) + length)
        )
    machine.trace.emit(
        machine.clock.now(), "cpu", "senter",
        mle_base=mle_base, length=length,
        acm=acm.measurement.hex(), mle=mle_measurement.hex(),
    )

    entry_routine = machine.lookup_executable(mle_measurement)
    if entry_routine is None:
        raise SkinitError(
            f"no executable registered for MLE measurement {mle_measurement.hex()[:16]}…"
        )
    return entry_routine(machine, core, mle_base)
