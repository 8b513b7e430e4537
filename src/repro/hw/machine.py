"""The assembled platform: CPU + memory + TPM + DEV + devices + clock.

A :class:`Machine` is the root object of every simulation.  It owns the
virtual clock and event trace, constructs the TPM (keeping the locality-4
CPU interface private), and mediates every DMA transfer through the Device
Exclusion Vector.

"Executing" an SLB is modelled by a registry that maps the SHA-1
measurement of an SLB image to a Python entry routine: SKINIT measures the
bytes actually present in memory and dispatches on that digest, so any
tampering with the in-memory image changes the measurement — the tampered
code may run, but PCR 17 will record what *actually* ran, which is
precisely the property the paper's attestation relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.crypto.sha1 import sha1
from repro.errors import DMAProtectionError, ReproError
from repro.hw.apic import APIC
from repro.hw.cpu import CPU, GDT
from repro.hw.dev import DeviceExclusionVector
from repro.hw.devices import DMADevice, HardwareDebugger
from repro.hw.memory import PhysicalMemory
from repro.hw import skinit as skinit_mod
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import DEFAULT_PROFILE, TimingProfile
from repro.sim.trace import EventTrace
from repro.tpm.tpm import LOCALITY_CPU, LOCALITY_OS, TPM, TPMInterface

#: Default physical memory: 128 MB is plenty for the simulated workloads.
DEFAULT_MEMORY_BYTES = 128 * 1024 * 1024

#: Entry routine type for registered SLB executables.
EntryRoutine = Callable[["Machine", Any, int], Any]


class Machine:
    """One simulated SVM-capable computer with a v1.2 TPM."""

    def __init__(
        self,
        profile: TimingProfile = DEFAULT_PROFILE,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        num_cores: int = 2,
        seed: int = 2008,
        tpm_key_bits: int = 512,
        intel_acm_authority=None,
        multicore_isolation: bool = False,
        tpm_jitter_fraction: float = 0.0,
        clock: Optional[VirtualClock] = None,
        machine_id: Optional[str] = None,
    ) -> None:
        self.profile = profile
        #: The machine's clock: a plain :class:`VirtualClock` by default
        #: (one serial timeline), or a caller-supplied
        #: :class:`~repro.sim.sched.ScheduledClock` when this machine is
        #: one of many on a shared event schedule.
        self.clock = clock if clock is not None else VirtualClock()
        #: Fleet identity (``None`` on standalone machines).  Stamped into
        #: observability spans/events so exported traces get one track per
        #: machine, and used to address fault-injection specs per machine.
        self.machine_id = machine_id
        self.trace = EventTrace()
        self.rng = DeterministicRNG(seed)
        self.memory = PhysicalMemory(memory_bytes)
        self.dev = DeviceExclusionVector()
        self.cpu = CPU(num_cores=num_cores)
        self.apic = APIC(self.cpu)
        self.tpm = TPM(
            clock=self.clock,
            trace=self.trace,
            rng=self.rng,
            timings=profile.tpm,
            key_bits=tpm_key_bits,
            jitter_fraction=tpm_jitter_fraction,
        )
        #: Locality-4 TPM interface; held by the machine, never by software.
        self.cpu_tpm_interface: TPMInterface = self.tpm.interface(LOCALITY_CPU)
        #: Optional fault injector (:class:`repro.faults.FaultInjector`).
        #: ``None`` means the platform runs fault-free; components signal
        #: injection points through :meth:`fire_fault` regardless.
        self.fault_injector = None
        #: Optional observability hub (:class:`repro.obs.ObservabilityHub`).
        #: ``None`` (the default) disables all instrumentation at the cost
        #: of one attribute test per site; see :meth:`enable_observability`.
        self.obs = None
        self.tpm.fault_hook = self.fire_fault
        self.debugger = HardwareDebugger(self)
        self._dma_devices: Dict[str, DMADevice] = {}
        self._executables: Dict[bytes, EntryRoutine] = {}
        #: Intel TXT support: the ACM authority whose key is fused into the
        #: chipset (None on AMD-only machines; see :mod:`repro.hw.txt`).
        self._intel_acm_authority = intel_acm_authority
        #: Next-generation hardware mode (the paper's §7.5 recommendation
        #: from [19]): secure execution on a subset of cores, letting the
        #: untrusted OS keep running on the others during a session.
        self.multicore_isolation = multicore_isolation

        # Power-on: flat segments covering all of memory on every core.
        boot_gdt = GDT.flat(self.memory.size_bytes, name="boot-gdt")
        for core in self.cpu.cores:
            core.load_gdt(boot_gdt)
            for register in ("cs", "ds", "ss"):
                core.load_segment(register, register)

    # -- observability -----------------------------------------------------------

    #: Hub factory registered by :mod:`repro.obs` when it is imported.
    #: Dependency inversion keeps the observability layer out of the TCB:
    #: hardware code never imports ``repro.obs`` (enforced by TCB001).
    _hub_factory = None

    @classmethod
    def register_hub_factory(cls, factory) -> None:
        """Called by :mod:`repro.obs` to provide the ObservabilityHub
        constructor without the TCB importing the observability layer."""
        cls._hub_factory = factory

    def enable_observability(self):
        """Attach an :class:`repro.obs.ObservabilityHub` and wire it in.

        Every ``clock.span(...)`` becomes a recorded hierarchical span,
        every TPM command a child span plus a latency-histogram sample,
        and the hardware layers start counting SKINITs and DEV-blocked
        DMA.  Idempotent; returns the hub.  Call
        :meth:`disable_observability` to unwire it again.

        Requires :mod:`repro.obs` to have been imported (it registers
        the hub factory); the public entry points that enable
        observability do so.
        """
        if self.obs is None:
            if Machine._hub_factory is None:
                raise ReproError(
                    "observability requires 'import repro.obs' (it registers "
                    "the hub factory; the TCB does not import it itself)"
                )
            self.obs = Machine._hub_factory(self.clock, machine=self.machine_id)
            self.clock.set_span_listener(self.obs)
            self.tpm.obs = self.obs
        return self.obs

    def disable_observability(self) -> None:
        """Detach the hub: instrumentation reverts to zero-overhead mode."""
        self.obs = None
        self.clock.set_span_listener(None)
        self.tpm.obs = None

    # -- fault injection ---------------------------------------------------------

    def fire_fault(self, point: str, **context: Any) -> Any:
        """Signal a named injection point to the installed fault injector.

        Returns whatever the injector's handler returns (``None`` when no
        injector is installed or the point is not armed).  Handlers may
        raise typed errors to model the fault, or return replacement data
        (e.g. corrupted NV contents)."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.fire(point, self, **context)

    # -- software-visible TPM access -------------------------------------------

    def os_tpm_interface(self) -> TPMInterface:
        """A locality-0 TPM interface, as used by OS drivers and PALs."""
        return self.tpm.interface(LOCALITY_OS)

    # -- DMA bridge --------------------------------------------------------------

    def attach_dma_device(self, name: str) -> DMADevice:
        """Attach a DMA-capable peripheral and return its handle."""
        device = DMADevice(self, name)
        self._dma_devices[name] = device
        return device

    def dma_read(self, device: DMADevice, addr: int, length: int) -> bytes:
        """DMA read on behalf of ``device``; consults the DEV."""
        try:
            self.dev.check_dma(addr, length, device.name)
        except DMAProtectionError:
            self.trace.emit(self.clock.now(), "dev", "dma_blocked",
                            device=device.name, addr=addr, length=length)
            if self.obs is not None:
                self.obs.registry.counter(
                    "dev_dma_blocked_total", "DMA transfers denied by the DEV"
                ).inc(device=device.name, direction="read")
            raise
        self.trace.emit(self.clock.now(), "dev", "dma_read",
                        device=device.name, addr=addr, length=length)
        if self.obs is not None:
            self.obs.registry.counter(
                "dev_dma_total", "DMA transfers allowed through the DEV"
            ).inc(device=device.name, direction="read")
        return self.memory.read(addr, length)

    def dma_write(self, device: DMADevice, addr: int, data: bytes) -> None:
        """DMA write on behalf of ``device``; consults the DEV."""
        try:
            self.dev.check_dma(addr, len(data), device.name)
        except DMAProtectionError:
            self.trace.emit(self.clock.now(), "dev", "dma_blocked",
                            device=device.name, addr=addr, length=len(data))
            if self.obs is not None:
                self.obs.registry.counter(
                    "dev_dma_blocked_total", "DMA transfers denied by the DEV"
                ).inc(device=device.name, direction="write")
            raise
        self.trace.emit(self.clock.now(), "dev", "dma_write",
                        device=device.name, addr=addr, length=len(data))
        if self.obs is not None:
            self.obs.registry.counter(
                "dev_dma_total", "DMA transfers allowed through the DEV"
            ).inc(device=device.name, direction="write")
        self.memory.write(addr, data)

    # -- SLB executable registry ---------------------------------------------------

    def register_executable(self, image: bytes, entry_routine: EntryRoutine) -> bytes:
        """Register the entry routine for an SLB image.

        The registry key is the SHA-1 of the *measured* portion of the
        image (its declared length), mirroring how real hardware would
        simply execute whatever bytes are present: dispatch is by content,
        so replacing the bytes in memory changes what runs.
        Returns the measurement.
        """
        length, _ = skinit_mod.parse_slb_header(image)
        measurement = sha1(image[:length])
        self._executables[measurement] = entry_routine
        return measurement

    def lookup_executable(self, measurement: bytes) -> Optional[EntryRoutine]:
        """Entry routine for a measured SLB, or ``None`` if unknown."""
        return self._executables.get(measurement)

    # -- instructions ---------------------------------------------------------------

    def skinit(self, core_id: int, slb_base: int) -> Any:
        """Execute the SKINIT instruction (see :mod:`repro.hw.skinit`)."""
        return skinit_mod.skinit(self, core_id, slb_base)

    @property
    def intel_acm_key(self):
        """The chipset-fused ACM verification key, or ``None`` on machines
        without TXT support."""
        if self._intel_acm_authority is None:
            return None
        return self._intel_acm_authority.public_key

    def senter(self, core_id: int, acm, mle_base: int) -> Any:
        """Execute GETSEC[SENTER] (see :mod:`repro.hw.txt`)."""
        from repro.hw import txt as txt_mod

        return txt_mod.senter(self, core_id, acm, mle_base)

    # -- host-CPU work accounting ------------------------------------------------------

    def charge_host_sha1(self, num_bytes: int, label: str = "sha1") -> None:
        """Charge virtual time for hashing ``num_bytes`` on the host CPU."""
        self.clock.advance(self.profile.host.sha1_ms_per_kb * num_bytes / 1024.0)
        self.trace.emit(self.clock.now(), "cpu", "hash", label=label, nbytes=num_bytes)

    def charge_work(self, ms: float, label: str) -> None:
        """Charge arbitrary application work time to the virtual clock."""
        self.clock.advance(ms)
        self.trace.emit(self.clock.now(), "cpu", "work", label=label, ms=ms)

    # -- lifecycle ------------------------------------------------------------------------

    def reboot(self) -> None:
        """Power-cycle the platform.

        Static PCRs reset to zero and dynamic PCRs to −1 (paper §2.3), the
        DEV clears, and all cores return to ring 0 with interrupts enabled.
        Physical memory is *not* cleared — cold-boot remanence is part of
        the TCG threat model's exclusions, and keeping it makes the
        simulation's "secrets must be erased before exit" tests honest.
        """
        self.tpm.reboot()
        self.dev.clear()
        for core in self.cpu.cores:
            core.ring = 0
            core.interrupts_enabled = True
            core.debug_access_enabled = True
            core.paging_enabled = True
            core.halted = False
            core.received_init_ipi = False
        self.trace.emit(self.clock.now(), "cpu", "reboot")
