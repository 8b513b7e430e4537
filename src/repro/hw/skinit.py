"""The SKINIT instruction (AMD SVM late launch).

Paper §2.4 specifies the semantics this function implements:

1. SKINIT is privileged: only ring-0 code may issue it, and only on the
   Boot Strap Processor; every Application Processor must already have
   taken an INIT IPI (enforced via a handshake — modelled by
   :meth:`CPU.all_aps_quiesced`).
2. The 64-KB region starting at the SLB base is added to the Device
   Exclusion Vector, blocking DMA.
3. Interrupts are disabled so previously executing code cannot regain
   control; debugging access is disabled, even for hardware debuggers.
4. The TPM's dynamic PCRs 17–23 are reset to zero via the CPU-only
   hardware command, and the SLB contents (up to 64 KB; exactly the
   ``length`` declared in the SLB header) are transmitted to the TPM,
   hashed, and extended into PCR 17.
5. The CPU enters flat 32-bit protected mode (paging disabled) and jumps
   to the SLB's declared entry point.

The cost charged to the virtual clock is
:meth:`~repro.sim.timing.TPMTimings.skinit_ms`, which reproduces Table 2's
linear growth with SLB size.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any

from repro.crypto.sha1 import sha1
from repro.errors import SkinitError, SLBFormatError
from repro.hw.memory import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.hw.machine import Machine

#: Size of the region SKINIT protects and (by default) measures.
SLB_REGION_SIZE = 64 * 1024

#: PCR into which the SLB measurement is extended.
SLB_MEASUREMENT_PCR = 17


def parse_slb_header(header: bytes) -> tuple:
    """Parse the SLB's first two 16-bit words: (length, entry_point)."""
    if len(header) < 4:
        raise SLBFormatError("SLB header requires at least 4 bytes")
    length, entry = struct.unpack("<HH", header[:4])
    return length, entry


def skinit(machine: "Machine", core_id: int, slb_base: int) -> Any:
    """Execute SKINIT on ``core_id`` with the SLB at ``slb_base``.

    Returns whatever the SLB's registered entry routine returns (the SLB
    Core's session result in this reproduction).  All architectural
    protections are applied *before* any SLB code runs; the caller (the
    flicker-module) is responsible for restoring OS state afterwards — the
    instruction itself saves nothing (paper §4.2, "Suspend OS").
    """
    core = machine.cpu.cores[core_id]
    core.require_ring(0, "SKINIT")
    if not core.is_bsp:
        raise SkinitError("SKINIT can only be run on the Boot Strap Processor")
    if not machine.multicore_isolation and not machine.cpu.all_aps_quiesced():
        # Next-generation hardware (the §7.5 recommendation from [19])
        # isolates the secure session to one core and lets the APs keep
        # running the untrusted OS; current hardware requires the INIT
        # handshake with every AP.
        raise SkinitError(
            "SKINIT handshake failed: not all APs are idle with INIT received"
        )
    if slb_base % PAGE_SIZE:
        raise SkinitError(f"SLB base {slb_base:#x} is not page aligned")
    if slb_base + SLB_REGION_SIZE > machine.memory.size_bytes:
        raise SkinitError("SLB region extends past the end of physical memory")

    header = machine.memory.read(slb_base, 4)
    length, entry = parse_slb_header(header)
    if length < 4 or length > SLB_REGION_SIZE:
        raise SLBFormatError(f"SLB length {length} outside 4..{SLB_REGION_SIZE}")
    if entry >= length:
        raise SLBFormatError(f"SLB entry point {entry:#x} outside measured region")

    # Injection point: the image sits in DMA-reachable memory until the DEV
    # bits are set below, so a fault here models corruption in that window.
    # SKINIT measures whatever bytes are present afterwards — tampering
    # changes the measurement, never what PCR 17 reports about it.
    machine.fire_fault("skinit.pre-measure", slb_base=slb_base, length=length)

    # --- hardware protections (step 2-3) ---------------------------------
    machine.dev.protect_range(slb_base, SLB_REGION_SIZE)
    core.interrupts_enabled = False
    core.debug_access_enabled = False
    core.paging_enabled = False
    core.ring = 0

    # --- TPM interaction (step 4) ----------------------------------------
    cpu_tpm = machine.cpu_tpm_interface
    cpu_tpm.dynamic_pcr_reset()
    measured = machine.memory.read(slb_base, length)
    measurement = sha1(measured)
    # The hash/extend happens inside the TPM as part of SKINIT; its cost is
    # part of the modelled SKINIT latency, so extend the PCR directly on the
    # bank rather than double-charging a TPM_Extend command.
    machine.tpm.pcrs.extend(SLB_MEASUREMENT_PCR, measurement)

    with machine.clock.span("skinit"):
        machine.clock.advance(machine.profile.tpm.skinit_ms(length))
    obs = machine.obs
    if obs is not None:
        obs.registry.counter("skinit_total", "SKINIT launches").inc()
        obs.registry.histogram(
            "skinit_ms", "SKINIT latency (Table 2: linear in SLB size)"
        ).observe(machine.profile.tpm.skinit_ms(length))
        obs.registry.histogram(
            "skinit_measured_bytes", "Measured SLB prefix length",
            buckets=(4096.0, 8192.0, 16384.0, 32768.0, 65536.0),
        ).observe(length)
        obs.event("skinit.measured", category="cpu",
                  length=length, measurement=measurement.hex())
    machine.trace.emit(
        machine.clock.now(),
        "cpu",
        "skinit",
        slb_base=slb_base,
        length=length,
        entry=entry,
        measurement=measurement.hex(),
    )

    # --- jump to the SLB entry point (step 5) ------------------------------
    entry_routine = machine.lookup_executable(measurement)
    if entry_routine is None:
        raise SkinitError(
            f"no executable registered for SLB measurement {measurement.hex()[:16]}…"
        )
    return entry_routine(machine, core, slb_base)
