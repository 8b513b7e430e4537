"""The SLB Core: the mandatory ~250-line TCB of every Flicker session.

This module is the reproduction of the paper's central artifact (§4.2,
Figure 6 row one): the code that runs between SKINIT's jump and the
resumption of the untrusted OS.  Its phases, in order:

* **Initialization** — (optimized images only) hash the full 64-KB region
  and extend the digest into PCR 17; build the SLB GDT with segments based
  at the SLB base; load segment registers; if the OS-Protection module is
  linked, drop to ring 3 behind a limit-checked segment.
* **Execute PAL** — construct the :class:`~repro.core.pal.PALContext`
  with exactly the linked capabilities and call the PAL.
* **Cleanup** — zeroize the SLB region and the input page so no secret
  survives into untrusted execution.
* **Extend PCR** — extend the result-integrity measurement (inputs,
  outputs, nonce) and then the public sentinel constant, closing the
  PCR-17 session record and revoking sealed-storage access.
* **Resume OS** — rebuild skeleton page tables, restore the kernel's CR3
  and GDT, and return to the flicker-module.

A PAL that raises is contained: cleanup, the closing extends, and the OS
resume all still run, and the error is reported to the caller only after
the platform is back in a safe state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.attestation import SENTINEL_MEASUREMENT, io_measurement
from repro.core.layout import (
    PARAM_PAGE_SIZE,
    SLB_MAX_CODE,
    SLB_REGION_SIZE,
    SLBLayout,
    decode_param,
    encode_param,
)
from repro.core.modules.crypto_mod import PALCrypto
from repro.core.modules.memory_mgmt import PALHeap
from repro.core.modules.os_protection import restricted_view, unrestricted_view
from repro.core.modules.tpm_utils import FLICKER_PCR, PALTPMInterface
from repro.core.pal import PALContext
from repro.core.slb import SLBImage
from repro.crypto.sha1 import sha1
from repro.errors import PALRuntimeError, TPMTransientError
from repro.hw.cpu import CPUCore, GDT, SegmentDescriptor, TaskStateSegment
from repro.hw.machine import Machine

#: Modelled fixed costs of SLB Core phases (sub-millisecond bookkeeping the
#: paper folds into its "<1 ms" remainders).
INIT_MS = 0.05
CLEANUP_MS = 0.05
RESUME_MS = 0.20


@dataclass
class SavedKernelState:
    """What the flicker-module saves before SKINIT (§4.2, "Suspend OS")."""

    cr3: int
    gdt: GDT
    segments: dict
    nonce: bytes
    #: Launch technology: ``"svm"`` (SKINIT) or ``"txt"`` (SENTER).
    launch: str = "svm"
    #: For TXT launches: the SINIT ACM's measurement (PAL identity spans
    #: PCR 17 = ACM and PCR 18 = MLE on Intel hardware).
    acm_measurement: bytes = b""


@dataclass
class SLBCoreResult:
    """What a completed session hands back to the flicker-module."""

    outputs: bytes
    #: Ordered (label, measurement) pairs extended into PCR 17.
    event_log: Tuple[Tuple[str, bytes], ...]
    #: Set when the PAL raised; the OS was still restored safely.
    pal_error: Optional[str] = None
    #: Labels of extends the PAL performed itself (subset of event_log).
    pal_extend_count: int = 0
    #: Exception type name behind ``pal_error`` (e.g. ``"TPMTransientError"``).
    pal_error_type: str = ""
    #: True when the PAL died on a retryable fault (transient TPM error).
    pal_error_transient: bool = False


def _build_slb_gdt(layout: SLBLayout, restrict: bool) -> GDT:
    """The SLB Core's GDT: segments based at the SLB base so the PAL can
    be linked at address 0 (§4.2, "Initialize the SLB")."""
    gdt = GDT(name="slb-gdt")
    limit = (
        layout.pal_window_end - layout.base
        if restrict
        else SLB_REGION_SIZE + 3 * PARAM_PAGE_SIZE
    )
    dpl = 3 if restrict else 0
    gdt.install(SegmentDescriptor("cs", layout.base, limit, dpl=dpl, executable=True))
    gdt.install(SegmentDescriptor("ds", layout.base, limit, dpl=dpl))
    gdt.install(SegmentDescriptor("ss", layout.base, limit, dpl=dpl))
    # Call gate back to ring 0 for the OS-Protection return path and the
    # OS-resume transition (§4.2, "Resume OS").
    gdt.install(SegmentDescriptor("callgate-cs", 0, 2 ** 32, dpl=0, executable=True))
    return gdt


def execute_slb(
    machine: Machine,
    core: CPUCore,
    slb_base: int,
    image: SLBImage,
    saved_state: SavedKernelState,
    functional_rsa_bits: int = 512,
) -> SLBCoreResult:
    """Run one Flicker session's protected phase (post-SKINIT).

    Entered via the machine's executable registry when SKINIT jumps to the
    SLB entry point.  Returns an :class:`SLBCoreResult`; never leaves the
    platform suspended, even on PAL failure.
    """
    clock = machine.clock
    layout = SLBLayout(base=slb_base)
    tpm_if = machine.os_tpm_interface()
    pal_tpm = PALTPMInterface(
        tpm_if, utils_linked="tpm_utils" in image.linked_modules
    )
    if saved_state.launch == "txt":
        # SENTER measured the ACM into PCR 17 and the MLE (= this SLB)
        # into PCR 18; the session record accumulates in PCR 17 on top of
        # the ACM measurement.
        event_log: List[Tuple[str, bytes]] = [("sinit-acm", saved_state.acm_measurement)]
    else:
        event_log = list(image.launch_measurements())

    with clock.span("slb-init"):
        if image.optimized:
            # The bootstrap stub hashes the entire 64-KB region on the main
            # CPU and extends the digest (§7.2, "SKINIT Optimization").
            region = machine.memory.read(slb_base, SLB_REGION_SIZE)
            machine.charge_host_sha1(len(region), label="slb-region-hash")
            tpm_if.pcr_extend(FLICKER_PCR, sha1(region))
        restrict = "os_protection" in image.linked_modules
        gdt = _build_slb_gdt(layout, restrict)
        core.load_gdt(gdt)
        for register in ("cs", "ds", "ss"):
            core.load_segment(register, register)
        core.tss = TaskStateSegment(
            ring0_stack_base=layout.stack_base, ring0_entry="slb-core-exit"
        )
        clock.advance(INIT_MS)

    inputs = decode_param(machine.memory.read(layout.input_page, PARAM_PAGE_SIZE))

    # Optional §5.1.2 watchdog: a charge callback that terminates the PAL
    # once its *CPU work* budget is exhausted.  TPM latency never counts —
    # "a PAL may need some minimal amount of time to allow TPM operations
    # to complete before the PAL can accomplish any meaningful work".
    charge = machine.charge_work
    if image.pal.max_work_ms is not None:
        budget = {"remaining_ms": float(image.pal.max_work_ms)}

        def charge(ms: float, label: str, _budget=budget) -> None:
            _budget["remaining_ms"] -= ms
            if _budget["remaining_ms"] < 0:
                raise PALRuntimeError(
                    f"SLB Core watchdog: PAL exceeded its "
                    f"{image.pal.max_work_ms} ms work budget at {label!r}"
                )
            machine.charge_work(ms, label)

    # Assemble the PAL's context from the linked modules.
    mem_view = (
        restricted_view(machine.memory, layout)
        if restrict
        else unrestricted_view(machine.memory)
    )
    crypto: Optional[PALCrypto] = None
    if "crypto" in image.linked_modules or "crypto_sha1" in image.linked_modules:
        if "tpm_driver" in image.linked_modules:
            entropy = pal_tpm.get_random(32)
        else:
            entropy = sha1(image.skinit_measurement + b"entropy") + b"\x00" * 12
        crypto = PALCrypto(
            host=machine.profile.host,
            charge=charge,
            entropy=entropy,
            functional_rsa_bits=functional_rsa_bits,
            hash_only="crypto" not in image.linked_modules,
        )
    heap: Optional[PALHeap] = None
    if "memory_mgmt" in image.linked_modules:
        heap_base = (slb_base + image.code_size + 15) & ~15
        heap = PALHeap(machine.memory, heap_base, slb_base + SLB_MAX_CODE - heap_base)

    if saved_state.launch == "txt":
        from repro.tpm.pcr import PCR_DYNAMIC_RESET_VALUE, simulate_extend_chain

        self_pcr17 = simulate_extend_chain(
            PCR_DYNAMIC_RESET_VALUE, [saved_state.acm_measurement]
        )
        seal_policy = {
            17: self_pcr17,
            18: simulate_extend_chain(
                PCR_DYNAMIC_RESET_VALUE, [image.skinit_measurement]
            ),
        }
    else:
        self_pcr17 = image.pcr17_launch_value
        seal_policy = {17: self_pcr17}

    ctx = PALContext(
        inputs=inputs,
        layout=layout,
        mem=mem_view,
        linked_modules=image.linked_modules,
        self_pcr17=self_pcr17,
        charge=charge,
        charge_hash=machine.charge_host_sha1,
        tpm=pal_tpm if "tpm_driver" in image.linked_modules else None,
        crypto=crypto,
        heap=heap,
    )
    ctx.self_seal_policy = seal_policy

    pal_error: Optional[str] = None
    pal_error_type = ""
    pal_error_transient = False
    trace_mark = len(machine.trace)
    machine.fire_fault("pal.enter", pal=image.pal.name, layout=layout)
    with clock.span("pal-exec"):
        if restrict:
            core.ring = 3  # IRET into the confined PAL (§5.1.2)
        try:
            # Faults raised at these points land in the same containment
            # path as a buggy PAL: cleanup and the closing extends still
            # run, so the session fails closed rather than wedged.
            machine.fire_fault("session.mid", pal=image.pal.name, layout=layout)
            machine.fire_fault("pal.exception", pal=image.pal.name)
            image.pal.run(ctx)
        except Exception as exc:  # contain the PAL; OS must still resume
            pal_error = f"{type(exc).__name__}: {exc}"
            pal_error_type = type(exc).__name__
            pal_error_transient = isinstance(exc, TPMTransientError)
        finally:
            core.ring = 0  # call gate + TSS return to the SLB Core
            machine.fire_fault("pal.exit", pal=image.pal.name)

    # Collect the PAL's own PCR-17 extends for the event log.
    pal_extends = [
        bytes.fromhex(event.detail["measurement"])
        for event in list(machine.trace)[trace_mark:]
        if event.kind == "pcr_extend" and event.detail.get("pcr") == FLICKER_PCR
    ]
    event_log.extend(("pal-extend", digest) for digest in pal_extends)

    outputs = b"" if pal_error else ctx.staged_output()
    machine.memory.write(layout.output_page, encode_param(outputs))

    with clock.span("cleanup"):
        # Erase every secret the PAL may have left behind: the whole SLB
        # region (code, heap, stack) and the input page.
        machine.memory.zeroize(slb_base, SLB_REGION_SIZE)
        machine.memory.zeroize(layout.input_page, PARAM_PAGE_SIZE)
        clock.advance(CLEANUP_MS)

    with clock.span("extend-pcr"):
        result_measurement = io_measurement(inputs, outputs, saved_state.nonce)
        tpm_if.pcr_extend(FLICKER_PCR, result_measurement)
        event_log.append(("io", result_measurement))
        tpm_if.pcr_extend(FLICKER_PCR, SENTINEL_MEASUREMENT)
        event_log.append(("sentinel", SENTINEL_MEASUREMENT))

    with clock.span("resume-os"):
        # Skeleton page tables with a unity mapping for the resume stub,
        # then the kernel's own tables and descriptor state (§4.2).
        core.paging_enabled = True
        core.cr3 = saved_state.cr3
        core.load_gdt(saved_state.gdt)
        for register, descriptor in saved_state.segments.items():
            core.load_segment(register, descriptor)
        core.debug_access_enabled = True
        clock.advance(RESUME_MS)

    machine.trace.emit(machine.clock.now(), "flicker", "slb-core-exit",
                       pal=image.pal.name, error=pal_error or "")
    return SLBCoreResult(
        outputs=outputs,
        event_log=tuple(event_log),
        pal_error=pal_error,
        pal_extend_count=len(pal_extends),
        pal_error_type=pal_error_type,
        pal_error_transient=pal_error_transient,
    )
