"""The PAL programming model.

A PAL (Piece of Application Logic) is the security-sensitive code a
Flicker session executes (paper §4.1).  In the reproduction a PAL is a
class with a :meth:`PAL.run` method; its *code identity* — what SKINIT
measures — is the source text of that class plus the names of the modules
it links, so editing the PAL's logic (or its TCB) changes its measurement
exactly as recompiling the C PAL would.

At run time the PAL receives a :class:`PALContext`: its inputs, an output
writer, and one capability per linked module (``ctx.tpm``, ``ctx.crypto``,
``ctx.heap``, ``ctx.secure_channel``, plus the memory view configured by
``os_protection``).  Accessing a capability whose module was not linked
raises :class:`PALRuntimeError` — the simulation's equivalent of an
unresolved symbol at link time.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Tuple

from repro.core.layout import MAX_PARAM_BYTES, SLBLayout
from repro.core.modules import resolve_modules
from repro.core.modules.crypto_mod import PALCrypto
from repro.core.modules.memory_mgmt import PALHeap
from repro.core.modules.os_protection import PALMemoryView
from repro.core.modules.tpm_utils import PALTPMInterface
from repro.errors import PALRuntimeError


class PAL:
    """Base class for Pieces of Application Logic.

    Subclass, set :attr:`name` and :attr:`modules`, and implement
    :meth:`run`.  Keep the class small: everything in it is inside the
    session's TCB and is measured into PCR 17.

    A PAL's identity is its class.  Instances carry no state of their
    own, since SKINIT would not measure it: every instance of a class
    runs the same SLB image, and :func:`~repro.core.slb.build_slb`
    refuses an instance with attributes.  Configuration travels as the
    session's inputs.
    """

    #: Human-readable PAL name (appears in traces and event logs).
    name: str = "pal"

    #: Modules to link beyond the mandatory SLB Core (see
    #: :data:`repro.core.modules.MODULE_REGISTRY`).
    modules: Tuple[str, ...] = ()

    #: Optional watchdog: maximum virtual milliseconds of *application*
    #: work this PAL may charge before the SLB Core terminates it.  Paper
    #: §5.1.2: "We are also investigating techniques to limit a PAL's
    #: execution time using timer interrupts in the SLB Core", with the
    #: caveat that TPM operations need time to complete — accordingly the
    #: budget counts only CPU work, never TPM command latency.  ``None``
    #: disables the watchdog.
    max_work_ms = None

    def run(self, ctx: "PALContext") -> None:
        """Application-specific logic.  Read ``ctx.inputs``, do the work,
        call ``ctx.write_output``."""
        raise NotImplementedError

    # -- identity ---------------------------------------------------------------

    def code_bytes(self) -> bytes:
        """The PAL's measured code: its source text plus linked-module
        names.  Any change to the logic or the TCB changes this value and
        therefore the SLB measurement."""
        try:
            source = inspect.getsource(type(self))
        except (OSError, TypeError):
            raise PALRuntimeError(
                f"cannot obtain source of PAL {self.name!r}; define it in a file"
            ) from None
        manifest = ",".join(resolve_modules(self.modules))
        return source.encode("utf-8") + b"\x00" + manifest.encode("ascii")


class PALContext:
    """Everything a PAL can touch while it runs.

    Constructed by the SLB Core; fields reflect the linked modules.
    """

    def __init__(
        self,
        inputs: bytes,
        layout: SLBLayout,
        mem: PALMemoryView,
        linked_modules: Tuple[str, ...],
        self_pcr17: bytes,
        charge: Callable[[float, str], None],
        charge_hash: Optional[Callable[[int, str], None]] = None,
        tpm: Optional[PALTPMInterface] = None,
        crypto: Optional[PALCrypto] = None,
        heap: Optional[PALHeap] = None,
    ) -> None:
        self.inputs = inputs
        self.layout = layout
        self.mem = mem
        self.linked_modules = linked_modules
        #: PCR-17 value right after this PAL's launch — what a *future*
        #: invocation of the same PAL presents at Unseal time (§4.3.1).
        self.self_pcr17 = self_pcr17
        #: PCR policy identifying a future launch of this same PAL — what
        #: Seal operations should bind to.  On SVM launches this is
        #: ``{17: self_pcr17}``; on Intel TXT launches the identity spans
        #: PCR 17 (SINIT ACM) and PCR 18 (MLE), so the policy has both.
        self.self_seal_policy: dict = {17: self_pcr17}
        self.charge = charge
        #: Charge virtual time for hashing ``n`` bytes at the host's SHA-1
        #: throughput: ``ctx.charge_hash(n, label)``.  Lets PALs whose
        #: measured data is modelled larger than its functional stand-in
        #: (the rootkit detector's kernel regions) account honestly.
        self.charge_hash = charge_hash or (lambda _n, _label: None)
        self._tpm = tpm
        self._crypto = crypto
        self._heap = heap
        self._output: bytes = b""

    # -- output ---------------------------------------------------------------

    def write_output(self, data: bytes) -> None:
        """Stage the PAL's output (written to ``PAL_OUT`` — the page above
        the SLB — when the PAL returns)."""
        if len(data) > MAX_PARAM_BYTES:
            raise PALRuntimeError(
                f"output of {len(data)} bytes exceeds the output page "
                f"({MAX_PARAM_BYTES} bytes)"
            )
        self._output = bytes(data)

    def staged_output(self) -> bytes:
        """The output staged so far (read by the SLB Core)."""
        return self._output

    # -- capabilities ------------------------------------------------------------

    def _require(self, value, module_name: str):
        if value is None:
            raise PALRuntimeError(
                f"PAL did not link module {module_name!r}; add it to PAL.modules"
            )
        return value

    @property
    def tpm(self) -> PALTPMInterface:
        """TPM operations.  Linking ``tpm_driver`` grants the unauthorized
        commands (PCR read/extend, GetRandom); ``tpm_utils`` additionally
        unlocks Seal/Unseal, NV storage, and counters."""
        return self._require(self._tpm, "tpm_driver")

    @property
    def crypto(self) -> PALCrypto:
        """Cryptographic operations (requires ``crypto`` or
        ``crypto_sha1``)."""
        return self._require(self._crypto, "crypto")

    @property
    def heap(self) -> PALHeap:
        """malloc/free/realloc (requires ``memory_mgmt``)."""
        return self._require(self._heap, "memory_mgmt")

    @property
    def secure_channel(self):
        """Secure-channel endpoint (requires ``secure_channel``)."""
        if "secure_channel" not in self.linked_modules:
            raise PALRuntimeError(
                "PAL did not link module 'secure_channel'; add it to PAL.modules"
            )
        from repro.core.modules.secure_channel import PALSecureChannelEndpoint

        return PALSecureChannelEndpoint(self)

    def has_module(self, name: str) -> bool:
        """Whether a module is linked into this PAL."""
        return name in self.linked_modules
