"""Building Secure Loader Block images.

``build_slb`` plays the role of the paper's linker script (§5.1.2): it
lays the SLB Core first, then the linked modules, then the PAL's code, and
emits a flat binary with the SLB header (16-bit length and entry-point
words) in front.

Two build modes correspond to §7.2's "SKINIT Optimization":

* **unoptimized** — the header's length covers the whole code image, so
  SKINIT streams all of it to the TPM (Table 2's linear cost).
* **optimized** (default) — the image starts with the 4736-byte
  hash-then-extend bootstrap stub; SKINIT measures only the stub, and the
  stub then hashes the full 64-KB region on the main CPU and extends the
  result into PCR 17.  PCR 17 thus still binds every byte of the region,
  but the slow TPM transfer shrinks to 4736 bytes (≈14 ms).

The module also computes the PCR-17 values a verifier (or a Seal policy)
expects after a given image launches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.layout import OPTIMIZED_STUB_BYTES, SLB_MAX_CODE, SLB_REGION_SIZE
from repro.core.modules import MODULE_REGISTRY, modules_total_bytes, resolve_modules
from repro.core.pal import PAL
from repro.crypto.sha1 import sha1
from repro.errors import SLBFormatError
from repro.sim.rng import DeterministicRNG
from repro.tpm.pcr import PCR_DYNAMIC_RESET_VALUE, simulate_extend_chain

#: The one image built per ``(PAL class, optimize)`` in this process:
#: SKINIT measures code, and a PAL's code is its class.
_BUILT: Dict[Tuple[type, bool], "SLBImage"] = {}

#: Built images keyed by their 64-KB region bytes, so the flicker-module
#: can recover the :class:`SLBImage` for raw bytes written to its sysfs
#: ``slb`` entry.
_IMAGES: Dict[bytes, "SLBImage"] = {}


def _module_binary(name: str) -> bytes:
    """Deterministic stand-in bytes for a module's compiled code.

    Derived from the module name only, so a module's binary is identical
    across machines and builds — like shipping the same ``.o`` file.
    """
    descriptor = MODULE_REGISTRY[name]
    rng = DeterministicRNG(0xC0DE)
    return rng.fork(f"module:{name}").bytes(descriptor.size_bytes)


def _bootstrap_stub() -> bytes:
    """The 4736-byte measure-then-extend stub (including the 4-byte
    header); its body is SHA-1 code plus a minimal TPM extend driver."""
    rng = DeterministicRNG(0x57AB)
    return rng.fork("hash-extend-stub").bytes(OPTIMIZED_STUB_BYTES - 4)


@dataclass(frozen=True)
class SLBImage:
    """A built, measurable SLB image.

    The image bytes of a frozen :class:`SLBImage` never change, so its
    digests and code size are computed on first read and kept beside the
    fields, where ``__eq__`` and ``__repr__`` do not see them.
    """

    pal: PAL
    linked_modules: Tuple[str, ...]
    #: The full 64-KB region contents as installed in memory.
    image: bytes
    #: Number of bytes SKINIT streams to the TPM (the header length word).
    measured_length: int
    #: Whether the hash-then-extend stub is in use.
    optimized: bool

    @functools.cached_property
    def skinit_measurement(self) -> bytes:
        """SHA-1 of the SKINIT-measured prefix — what hardware extends
        into PCR 17."""
        return sha1(self.image[: self.measured_length])

    @functools.cached_property
    def region_measurement(self) -> bytes:
        """SHA-1 of the full 64-KB region — what the optimization stub
        extends (only meaningful when ``optimized``)."""
        return sha1(self.image)

    def launch_measurements(self) -> List[Tuple[str, bytes]]:
        """The (label, digest) extends that reach PCR 17 by the time the
        PAL starts executing."""
        measurements = [("skinit-slb", self.skinit_measurement)]
        if self.optimized:
            measurements.append(("slb-region", self.region_measurement))
        return measurements

    @functools.cached_property
    def pcr17_launch_value(self) -> bytes:
        """PCR 17 at the moment the PAL gains control: the value Seal
        policies bind to (§4.3.1's V = H(0…0 ‖ H(P)))."""
        return simulate_extend_chain(
            PCR_DYNAMIC_RESET_VALUE,
            [digest for _, digest in self.launch_measurements()],
        )

    @functools.cached_property
    def code_size(self) -> int:
        """Bytes of actual code in the image (header + core + modules +
        PAL), excluding padding/stack."""
        return 4 + modules_total_bytes(self.linked_modules) + len(self.pal.code_bytes()) + (
            OPTIMIZED_STUB_BYTES - 4 if self.optimized else 0
        )


def build_slb(pal: PAL, optimize: bool = True) -> SLBImage:
    """Link ``pal`` against the SLB Core and its modules into an SLB image.

    The image is a function of the PAL's class alone, so each
    ``(type(pal), optimize)`` is linked once per process and every
    machine and instance shares that image.

    Raises :class:`SLBFormatError` if ``pal`` carries instance attributes
    (SKINIT would not measure them; configuration travels as inputs) or if
    the code would overflow the 60-KB code area (Figure 3 reserves the top
    4 KB for the stack).
    """
    if vars(pal):
        raise SLBFormatError(
            f"PAL {pal.name!r} carries instance state {sorted(vars(pal))}; "
            "SKINIT measures only its class, so pass configuration as inputs"
        )
    key = (type(pal), optimize)
    slb = _BUILT.get(key)
    if slb is not None:
        return slb

    linked = resolve_modules(pal.modules)
    pal_code = pal.code_bytes()

    parts: List[bytes] = []
    if optimize:
        parts.append(_bootstrap_stub())
    for name in linked:
        parts.append(_module_binary(name))
    parts.append(pal_code)
    body = b"".join(parts)

    total_code = 4 + len(body)
    if total_code > SLB_MAX_CODE:
        raise SLBFormatError(
            f"SLB code of {total_code} bytes exceeds the {SLB_MAX_CODE}-byte code area"
        )

    measured_length = OPTIMIZED_STUB_BYTES if optimize else total_code
    entry_point = 4
    header = measured_length.to_bytes(2, "little") + entry_point.to_bytes(2, "little")
    image = (header + body).ljust(SLB_REGION_SIZE, b"\x00")

    slb = SLBImage(
        pal=pal,
        linked_modules=linked,
        image=image,
        measured_length=measured_length,
        optimized=optimize,
    )
    # Both memos are filled here only, by code that never yields to the
    # scheduler, and read by exact key; nothing iterates them, so the
    # order in which processes build images is unobservable.
    _BUILT[key] = slb  # repro: noqa[RACE001]
    _IMAGES[image] = slb  # repro: noqa[RACE001]
    return slb


def lookup_image(raw_image: bytes) -> SLBImage:
    """Recover the :class:`SLBImage` for raw bytes (sysfs ``slb`` writes).

    Raises :class:`SLBFormatError` for bytes that no build produced — the
    simulation cannot 'execute' arbitrary binaries, though SKINIT would
    still faithfully measure them.
    """
    slb = _IMAGES.get(raw_image.ljust(SLB_REGION_SIZE, b"\x00"))
    if slb is None:
        raise SLBFormatError("unrecognized SLB image (was it built with build_slb?)")
    return slb
