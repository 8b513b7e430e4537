"""Block devices and bulk file transfers.

Paper §7.5 studies the impact of repeated Flicker sessions on in-flight
block-device transfers (CD-ROM → disk → USB copies during an 8.3-second
distributed-computing session loop): "the kernel did not report any I/O
errors, and integrity checks with md5sum confirmed that the integrity of
all files remained intact."

The model: each device moves data by DMA into kernel buffers.  While a
Flicker session runs, the OS is suspended and cannot service completions;
transfers queue and complete when the OS resumes.  A transfer that waits
longer than the device's timeout is reported as an I/O error — so short
sessions are harmless and very long ones are not, reproducing the paper's
observation and its caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.md5 import md5
from repro.errors import OSError_
from repro.hw.machine import Machine

#: Default device command timeout (Linux SCSI-layer default is 30 s).
DEFAULT_TIMEOUT_MS = 30_000.0


@dataclass
class PendingTransfer:
    """A DMA transfer issued while the OS was suspended."""

    issued_at_ms: float
    description: str


class BlockDevice:
    """A DMA-capable block device holding named files.

    Files are stored device-side as byte strings; transfers to/from kernel
    memory go through the machine's DMA bridge and are therefore subject to
    the Device Exclusion Vector.
    """

    def __init__(
        self,
        machine: Machine,
        name: str,
        bandwidth_mb_s: float = 20.0,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
    ) -> None:
        self.machine = machine
        self.name = name
        self.bandwidth_mb_s = bandwidth_mb_s
        self.timeout_ms = timeout_ms
        self._dma = machine.attach_dma_device(name)
        self._files: Dict[str, bytes] = {}
        self.io_errors: List[str] = []
        self._pending: List[PendingTransfer] = []

    # -- file content -----------------------------------------------------------

    def store_file(self, filename: str, content: bytes) -> None:
        """Place a file on the device (out-of-band, e.g. pre-burned CD)."""
        self._files[filename] = content

    def read_file(self, filename: str) -> bytes:
        """Device-side file contents."""
        try:
            return self._files[filename]
        except KeyError:
            raise OSError_(f"no file {filename!r} on device {self.name}") from None

    def has_file(self, filename: str) -> bool:
        """Whether the device holds ``filename``."""
        return filename in self._files

    def md5sum(self, filename: str) -> bytes:
        """MD5 of a stored file (the paper's integrity check)."""
        return md5(self.read_file(filename))

    # -- transfer timing -----------------------------------------------------------

    def transfer_ms(self, num_bytes: int) -> float:
        """Time to move ``num_bytes`` at this device's bandwidth."""
        return num_bytes / (self.bandwidth_mb_s * 1024 * 1024) * 1000.0


class FileStore:
    """The OS's view of files across block devices, with copy support.

    ``copy`` models a chunked DMA copy: each chunk bounces through a kernel
    buffer.  If a Flicker session suspends the OS mid-copy, the in-flight
    chunk waits; the copy records an I/O error only if the suspension
    exceeded the device timeout.
    """

    #: Copy chunk size (a typical readahead-sized request).
    CHUNK = 128 * 1024

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._buffer_addr: Optional[int] = None

    def _kernel_buffer(self, kernel) -> int:
        if self._buffer_addr is None:
            self._buffer_addr = kernel.kalloc(self.CHUNK)
        return self._buffer_addr

    def copy(
        self,
        kernel,
        src: BlockDevice,
        src_file: str,
        dst: BlockDevice,
        dst_file: str,
        suspension_cb=None,
        flicker_aware: bool = False,
    ) -> None:
        """Copy ``src_file`` from ``src`` to ``dst_file`` on ``dst``.

        ``suspension_cb``, if given, is invoked before each chunk with the
        number of bytes copied so far and may run a Flicker session (it
        returns the session's duration in ms, or 0).  A suspension longer
        than either device's timeout records an I/O error on that device —
        this is the §7.5 experiment's control knob.

        ``flicker_aware`` models the paper's recommended fix (§7.5:
        "transfers should be scheduled such that they do not occur during
        a Flicker session … the best solution is to modify device drivers
        to be Flicker-aware"): the driver quiesces the device — no command
        is outstanding — before the session starts, so no timeout can
        fire regardless of session length.
        """
        content = src.read_file(src_file)
        buffer_addr = self._kernel_buffer(kernel)
        out = bytearray()
        copied = 0
        while copied < len(content):
            if suspension_cb is not None:
                suspended_ms = suspension_cb(copied) or 0.0
                if not flicker_aware:
                    for device in (src, dst):
                        if suspended_ms > device.timeout_ms:
                            device.io_errors.append(
                                f"timeout during {src_file}→{dst_file} at offset {copied}"
                            )
            chunk = content[copied : copied + self.CHUNK]
            # Device → kernel buffer → device, all via DMA.
            self.machine.dma_write(src._dma, buffer_addr, chunk)
            data = self.machine.dma_read(dst._dma, buffer_addr, len(chunk))
            out += data
            self.machine.clock.advance(src.transfer_ms(len(chunk)) + dst.transfer_ms(len(chunk)))
            copied += len(chunk)
        dst.store_file(dst_file, bytes(out))
