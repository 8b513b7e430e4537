"""The flicker-module: the untrusted Linux kernel module driving sessions.

Paper §4.1–4.2: applications interact with four sysfs entries —
``control``, ``inputs``, ``outputs``, and ``slb``.  Writing an SLB binary
to ``slb`` allocates kernel memory for it; writing to ``inputs`` stages
PAL inputs; writing to ``control`` runs the session; reading ``outputs``
retrieves the results.

The module is *not* in the PAL's TCB: everything it does is either
verified (the SLB it loads is measured by SKINIT) or harmless to the
session's security (suspend bookkeeping).  A malicious flicker-module can
deny service but cannot forge an attested session.
"""

from __future__ import annotations

from typing import Optional

from repro.core import slb as slb_mod
from repro.core.layout import PARAM_PAGE_SIZE, SLBLayout, encode_param, decode_param
from repro.core.slb import SLBImage
from repro.core.slb_core import SavedKernelState, SLBCoreResult, execute_slb
from repro.errors import FlickerError, PALRuntimeError
from repro.osim.kernel import UntrustedKernel
from repro.osim.modules import KernelModule
from repro.osim.sysfs import SysfsEntry
from repro.sim.rng import DeterministicRNG

#: sysfs mount point for the module's entries.
SYSFS_ROOT = "flicker"

#: Modelled cost of the module's setup work per session (sub-ms kernel
#: bookkeeping: hotplug, IPIs, state save).
SUSPEND_MS = 0.5
RESTORE_MS = 0.3

#: Default session nonce when no remote challenge is in play.
DEFAULT_NONCE = b"\x00" * 20


class FlickerModule(KernelModule):
    """The loadable kernel module (``flicker-module`` in the paper)."""

    name = "flicker_module"
    text = DeterministicRNG(0xF11C).fork("flicker-module-text").bytes(18 * 1024)

    def __init__(self, functional_rsa_bits: int = 512, launch: str = "svm",
                 acm=None) -> None:
        super().__init__()
        if launch not in ("svm", "txt"):
            raise FlickerError(f"unknown launch technology {launch!r}")
        if launch == "txt" and acm is None:
            raise FlickerError("TXT launch requires a SINIT ACM")
        self.functional_rsa_bits = functional_rsa_bits
        #: Launch technology: AMD SVM (SKINIT) or Intel TXT (SENTER).
        self.launch = launch
        #: The SINIT ACM used for TXT launches.
        self.acm = acm
        self._slb_image: Optional[SLBImage] = None
        self._slb_base: Optional[int] = None
        self._inputs: bytes = b""
        self._outputs: bytes = b""
        self._nonce: bytes = DEFAULT_NONCE
        self._last_result: Optional[SLBCoreResult] = None

    # -- module lifecycle ----------------------------------------------------------

    def on_load(self, kernel: UntrustedKernel) -> None:
        """Register the four sysfs entries (paper §4.2)."""
        kernel.sysfs.register(
            f"{SYSFS_ROOT}/slb",
            SysfsEntry("slb", write_handler=self.write_slb),
        )
        kernel.sysfs.register(
            f"{SYSFS_ROOT}/inputs",
            SysfsEntry("inputs", write_handler=self.write_inputs),
        )
        kernel.sysfs.register(
            f"{SYSFS_ROOT}/outputs",
            SysfsEntry("outputs", read_handler=self.read_outputs),
        )
        kernel.sysfs.register(
            f"{SYSFS_ROOT}/control",
            SysfsEntry("control", write_handler=self.write_control),
        )

    def on_unload(self) -> None:
        """Remove the sysfs entries."""
        for entry in ("slb", "inputs", "outputs", "control"):
            self.kernel.sysfs.unregister(f"{SYSFS_ROOT}/{entry}")

    # -- sysfs handlers ----------------------------------------------------------------

    def write_slb(self, raw_image: bytes) -> None:
        """Accept an uninitialized SLB: allocate kernel memory and stage it."""
        image = slb_mod.lookup_image(raw_image)
        self.install_slb(image)

    def write_inputs(self, data: bytes) -> None:
        """Stage PAL inputs for the next session."""
        self._inputs = bytes(data)

    def read_outputs(self) -> bytes:
        """PAL outputs of the most recent session."""
        return self._outputs

    def write_control(self, data: bytes) -> None:
        """``go`` (optionally ``go:<hex nonce>``) launches a session."""
        text = data.decode("ascii", errors="replace")
        if text.startswith("go:"):
            nonce = bytes.fromhex(text[3:])
        elif text == "go":
            nonce = DEFAULT_NONCE
        else:
            raise FlickerError(f"unknown control command {text!r}")
        self.execute(nonce=nonce)

    # -- direct (in-kernel) API -----------------------------------------------------------

    def install_slb(self, image: SLBImage) -> int:
        """Allocate kernel memory for an SLB image and register it for
        execution.  Returns ``slb_base``."""
        if self.kernel is None:
            raise FlickerError("flicker-module is not loaded")
        layout_bytes = 64 * 1024 + 3 * PARAM_PAGE_SIZE
        base = self.kernel.kalloc(layout_bytes, align=64 * 1024)
        self._slb_image = image
        self._slb_base = base

        machine = self.kernel.machine

        def entry_routine(machine_, core, slb_base):
            return execute_slb(
                machine_,
                core,
                slb_base,
                image,
                self._pending_state,
                functional_rsa_bits=self.functional_rsa_bits,
            )

        machine.register_executable(image.image, entry_routine)
        return base

    def execute(self, nonce: bytes = DEFAULT_NONCE) -> SLBCoreResult:
        """Run one Flicker session with the staged SLB and inputs.

        Follows the Figure 2 timeline: initialize SLB → suspend OS →
        SKINIT (which runs the SLB Core and PAL) → restore OS → publish
        outputs.  Raises :class:`PALRuntimeError` *after* the OS is
        restored if the PAL faulted.
        """
        if self._slb_image is None or self._slb_base is None:
            raise FlickerError("no SLB installed")
        if len(nonce) != 20:
            raise FlickerError("session nonce must be 20 bytes")
        if self.launch == "txt" and self._slb_image.optimized:
            # SENTER measures the full MLE itself; the hash-then-extend
            # stub is an SVM-only trick (Intel's ACM already runs at
            # chipset speed).
            raise FlickerError("TXT launches require an unoptimized SLB image")
        self._nonce = nonce

        kernel = self.kernel
        machine = kernel.machine
        clock = machine.clock
        layout = SLBLayout(base=self._slb_base)

        with clock.span("flicker-session"):
            with clock.span("init-slb"):
                # (Re)write the SLB image — the previous session's cleanup
                # zeroized the region — and stage the parameter pages.
                machine.memory.write(self._slb_base, self._slb_image.image)
                machine.memory.write(layout.input_page, encode_param(self._inputs))
                machine.memory.zeroize(layout.output_page, PARAM_PAGE_SIZE)

            with clock.span("suspend-os"):
                bsp = machine.cpu.bsp
                snapshot = bsp.snapshot()
                self._pending_state = SavedKernelState(
                    cr3=bsp.cr3,
                    gdt=snapshot["gdt"],
                    segments=snapshot["segments"],
                    nonce=nonce,
                    launch=self.launch,
                    acm_measurement=self.acm.measurement if self.acm else b"",
                )
                machine.memory.write(
                    layout.saved_state_page,
                    bsp.cr3.to_bytes(8, "big") + nonce,
                )
                if not machine.multicore_isolation:
                    # Today's hardware: hotplug the APs off and INIT them
                    # so SKINIT's handshake succeeds (§4.2, "Suspend OS").
                    kernel.deschedule_aps()
                    machine.apic.broadcast_init_ipi()
                bsp.interrupts_enabled = False
                clock.advance(SUSPEND_MS)
                machine.trace.emit(clock.now(), "flicker", "os-suspended",
                                   aps_suspended=not machine.multicore_isolation)

            if self.launch == "txt":
                result: SLBCoreResult = machine.senter(0, self.acm, self._slb_base)
            else:
                result = machine.skinit(0, self._slb_base)

            with clock.span("restore-os"):
                bsp = machine.cpu.bsp
                bsp.interrupts_enabled = True
                if not machine.multicore_isolation:
                    kernel.resume_aps()
                    machine.apic.release_aps()
                machine.dev.unprotect_range(self._slb_base, 64 * 1024)
                self._outputs = decode_param(
                    machine.memory.read(layout.output_page, PARAM_PAGE_SIZE)
                )
                clock.advance(RESTORE_MS)
                machine.trace.emit(clock.now(), "flicker", "os-resumed")

        self._last_result = result
        if result.pal_error is not None:
            error = PALRuntimeError(f"PAL faulted (OS restored): {result.pal_error}")
            error.error_type = result.pal_error_type
            error.transient = result.pal_error_transient
            raise error
        return result

    # -- introspection ---------------------------------------------------------------------

    @property
    def slb_base(self) -> Optional[int]:
        """Physical base of the installed SLB, if any."""
        return self._slb_base

    @property
    def installed_image(self) -> Optional[SLBImage]:
        """The currently installed SLB image, if any."""
        return self._slb_image

    @property
    def last_result(self) -> Optional[SLBCoreResult]:
        """Result of the most recent session (even a faulted one)."""
        return self._last_result
