"""The untrusted kernel: measured state, scheduler, page tables, allocator.

The kernel is *functional enough* to support everything Flicker needs from
it (paper §4.2) and everything the rootkit detector measures (paper §6.1):

* **Measured state.**  Kernel text, the system-call table, and the text of
  every loaded module live at fixed physical addresses.  The rootkit
  detector PAL hashes exactly these regions; an attacker who patches any
  of them changes the hash.
* **Scheduler & CPU hotplug.**  Processes are bound to cores; SKINIT's
  multi-core handshake requires the flicker-module to deschedule all
  Application Processors (Linux CPU-hotplug, kernels ≥ 2.6.19) before
  sending INIT IPIs.
* **Page tables.**  The kernel runs with paging enabled; the
  flicker-module saves the page-table root before SKINIT and the SLB Core
  restores it when resuming the OS.
* **Kernel memory allocator.**  A bump allocator hands out page-aligned
  kernel memory — the flicker-module uses it for the SLB region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelPanic, MemoryFault
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SIZE
from repro.osim.modules import KernelModule, load_module, unload_module
from repro.osim.sysfs import Sysfs

#: Physical base of the kernel's text segment.
KERNEL_TEXT_BASE = 0x0100_0000

#: Actual size of the simulated kernel text (functional bytes that get
#: hashed and can be attacked).  The *modelled* size used for timing is
#: larger — see ``measured_size_kb``.
KERNEL_TEXT_BYTES = 64 * 1024

#: Number of system-call table entries (Linux 2.6.20 order of magnitude).
SYSCALL_COUNT = 320

#: Physical base of the syscall table (just above kernel text).
SYSCALL_TABLE_BASE = KERNEL_TEXT_BASE + KERNEL_TEXT_BYTES

#: Base of the kernel heap used by the bump allocator.
KERNEL_HEAP_BASE = 0x0200_0000

#: End of the kernel heap.
KERNEL_HEAP_END = 0x0400_0000

#: Paper Table 1 reports 22.0 ms to hash the kernel text, syscall table and
#: loaded modules on the test machine.  With the host profile's SHA-1
#: throughput that corresponds to ~2820 KB of measured state; the simulated
#: kernel carries this as its *modelled* measurement size so the timing
#: reproduces the paper even though the functional image is smaller.
KERNEL_MEASURED_SIZE_KB = 2820.0


@dataclass
class Process:
    """A schedulable process."""

    pid: int
    name: str
    core_id: Optional[int] = None  # core currently executing it, if any


@dataclass
class PageTables:
    """A page-table hierarchy, identified by its root (CR3) address.

    The simulation never walks page tables, so only the root is modelled:
    what matters is that the SLB Core can restore the kernel's own CR3
    when resuming the OS (paper §4.2, "Resume OS").
    """

    root: int


#: Memoized kernel images keyed by (rng state, text size): kernel text and
#: the syscall table are pure functions of the ``kernel-text`` RNG stream,
#: so rebuilding a machine with the same seed — every fleet sweep row,
#: replay, and template clone — reuses the bytes instead of regenerating
#: 64 KB of deterministic noise.
_KERNEL_IMAGE_CACHE: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
_KERNEL_IMAGE_CACHE_MAX = 256


class UntrustedKernel:
    """The simulated (untrusted) operating system kernel."""

    def __init__(self, machine: Machine, name: str = "linux-2.6.20") -> None:
        self.machine = machine
        self.name = name
        self.sysfs = Sysfs()
        self._heap_cursor = KERNEL_HEAP_BASE
        self._modules: List[KernelModule] = []
        self._processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._runqueue: List[int] = []  # pids waiting for a core
        self._hotplugged_aps: List[int] = []

        # Lay out deterministic kernel text and a syscall table whose
        # entries point into it.  Both are pure functions of the forked
        # RNG stream, so identical seeds reuse the memoized image.
        rng = machine.rng.fork("kernel-text")
        cache_key = (rng.getstate(), KERNEL_TEXT_BYTES)
        cached = _KERNEL_IMAGE_CACHE.get(cache_key)
        if cached is None:
            text = rng.bytes(KERNEL_TEXT_BYTES)
            table = bytearray()
            for i in range(SYSCALL_COUNT):
                handler = KERNEL_TEXT_BASE + (
                    rng.randint(0, KERNEL_TEXT_BYTES - 16) & ~0xF
                )
                table += handler.to_bytes(4, "little")
            cached = (text, bytes(table))
            if len(_KERNEL_IMAGE_CACHE) >= _KERNEL_IMAGE_CACHE_MAX:
                _KERNEL_IMAGE_CACHE.clear()
            _KERNEL_IMAGE_CACHE[cache_key] = cached
        self._pristine_text, self._pristine_syscall_table = cached
        machine.memory.write(KERNEL_TEXT_BASE, self._pristine_text)
        machine.memory.write(SYSCALL_TABLE_BASE, self._pristine_syscall_table)

        self.page_tables = PageTables(root=0x0040_0000)
        machine.cpu.bsp.cr3 = self.page_tables.root
        for core in machine.cpu.cores:
            core.cr3 = self.page_tables.root

    # -- measured state ----------------------------------------------------------

    @property
    def syscall_table_bytes(self) -> int:
        """Size of the syscall table in bytes."""
        return SYSCALL_COUNT * 4

    def measured_regions(self) -> List[Tuple[str, int, int]]:
        """(name, physical address, length) of every region an integrity
        measurement of this kernel must cover: text, syscall table, and the
        text of each loaded module (paper §6.1)."""
        regions = [
            ("kernel-text", KERNEL_TEXT_BASE, KERNEL_TEXT_BYTES),
            ("syscall-table", SYSCALL_TABLE_BASE, self.syscall_table_bytes),
        ]
        for module in self._modules:
            regions.append((f"module:{module.name}", module.text_addr, len(module.text)))
        return regions

    def measured_size_kb(self) -> float:
        """The *modelled* size of the measured state, used for timing (see
        ``KERNEL_MEASURED_SIZE_KB``)."""
        return KERNEL_MEASURED_SIZE_KB

    def pristine_measurement_input(self) -> bytes:
        """The byte string a detector would hash on an *uncompromised*
        kernel with the current module set.  Used by verifiers to compute
        the known-good hash (paper §6.1: "the administrator can compare the
        hash value returned against known-good values for that particular
        kernel")."""
        parts = [self._pristine_text, self._pristine_syscall_table]
        for module in self._modules:
            parts.append(module.text)
        return b"".join(parts)

    # -- modules --------------------------------------------------------------------

    def load_module(self, module: KernelModule) -> None:
        """Load a kernel module (maps its text, runs init)."""
        load_module(self, module)

    def unload_module(self, module: KernelModule) -> None:
        """Unload a kernel module."""
        unload_module(module)

    def register_module(self, module: KernelModule) -> None:
        """Internal: add a mapped module to the loaded list."""
        self._modules.append(module)

    def unregister_module(self, module: KernelModule) -> None:
        """Internal: drop a module from the loaded list."""
        self._modules.remove(module)

    def loaded_modules(self) -> List[KernelModule]:
        """Currently loaded modules, in load order."""
        return list(self._modules)

    # -- kernel memory ------------------------------------------------------------------

    def kalloc(self, size: int, align: int = PAGE_SIZE) -> int:
        """Allocate page-aligned kernel memory; returns the physical base."""
        if size <= 0:
            raise MemoryFault("kalloc of non-positive size")
        cursor = (self._heap_cursor + align - 1) & ~(align - 1)
        if cursor + size > KERNEL_HEAP_END:
            raise KernelPanic("kernel heap exhausted")
        self._heap_cursor = cursor + size
        return cursor

    # -- scheduling ------------------------------------------------------------------------

    def spawn(self, name: str) -> Process:
        """Create a process and place it on a core (or the runqueue)."""
        process = Process(pid=self._next_pid, name=name)
        self._next_pid += 1
        self._processes[process.pid] = process
        self._place(process)
        return process

    def _place(self, process: Process) -> None:
        for core in self.machine.cpu.cores:
            if core.halted:
                continue
            if not any(p.core_id == core.core_id for p in self._processes.values()):
                process.core_id = core.core_id
                return
        process.core_id = None
        self._runqueue.append(process.pid)

    def exit_process(self, pid: int) -> None:
        """Terminate a process and schedule a waiter in its place."""
        process = self._processes.pop(pid, None)
        if process is None:
            raise KernelPanic(f"no such pid {pid}")
        if process.core_id is not None and self._runqueue:
            nxt = self._processes[self._runqueue.pop(0)]
            nxt.core_id = process.core_id

    def processes_on_core(self, core_id: int) -> List[Process]:
        """Processes currently placed on ``core_id``."""
        return [p for p in self._processes.values() if p.core_id == core_id]

    def deschedule_aps(self) -> None:
        """CPU hotplug: migrate all work off the Application Processors and
        halt them, so they can accept INIT IPIs (paper §4.2, "Suspend OS").
        """
        for core in self.machine.cpu.aps:
            for process in self.processes_on_core(core.core_id):
                process.core_id = None
                self._runqueue.append(process.pid)
            core.halted = True
            self._hotplugged_aps.append(core.core_id)

    def resume_aps(self) -> None:
        """Bring the APs back online and re-place queued processes."""
        for core_id in self._hotplugged_aps:
            core = self.machine.cpu.cores[core_id]
            core.halted = False
            core.received_init_ipi = False
        self._hotplugged_aps.clear()
        queued, self._runqueue = list(self._runqueue), []
        for pid in queued:
            self._place(self._processes[pid])
