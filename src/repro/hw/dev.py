"""Device Exclusion Vector (DEV).

AMD SVM's DEV is a bitmap over physical pages; a set bit blocks all DMA to
that page.  When the processor executes SKINIT it sets the DEV bits for the
64-KB region starting at the SLB base (paper §2.4); preparatory code inside
the SLB may extend protection to further pages before touching them (paper
§4.2, "SKINIT and the SLB Core").
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.errors import DMAProtectionError
from repro.hw.memory import PhysicalMemory


class DeviceExclusionVector:
    """Page-granular DMA protection bitmap."""

    def __init__(self) -> None:
        self._protected: Set[int] = set()
        #: Chronological record of blocked transfers as
        #: ``(device_name, addr, length)`` tuples (diagnostics / fault
        #: campaigns; the DEV itself is stateless about failures).
        self.blocked_attempts: List[Tuple[str, int, int]] = []

    def protect_range(self, addr: int, length: int) -> None:
        """Set DEV bits for all pages overlapping [addr, addr+length)."""
        self._protected.update(PhysicalMemory.page_range(addr, length))

    def unprotect_range(self, addr: int, length: int) -> None:
        """Clear DEV bits for all pages overlapping [addr, addr+length)."""
        self._protected.difference_update(PhysicalMemory.page_range(addr, length))

    def clear(self) -> None:
        """Clear the entire vector (OS resume path)."""
        self._protected.clear()

    def is_page_protected(self, page_index: int) -> bool:
        """True if the DEV bit for ``page_index`` is set."""
        return page_index in self._protected

    def protected_pages(self) -> Set[int]:
        """Copy of the protected page set (diagnostics)."""
        return set(self._protected)

    def check_dma(self, addr: int, length: int, device_name: str) -> None:
        """Raise :class:`DMAProtectionError` if any page in the range is
        protected.  Called by the machine's DMA bridge on every transfer."""
        for page in PhysicalMemory.page_range(addr, length):
            if page in self._protected:
                self.blocked_attempts.append((device_name, addr, length))
                raise DMAProtectionError(
                    f"DEV blocked DMA by {device_name!r} to page {page:#x} "
                    f"(range [{addr:#x}, {addr + length:#x}))"
                )

    def __len__(self) -> int:
        return len(self._protected)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceExclusionVector({len(self._protected)} pages protected)"
