"""The fault injector: wires a :class:`FaultPlan` into a live platform.

Components signal **named injection points** through
:meth:`Machine.fire_fault`; the injector decides — deterministically, from
the plan alone — whether anything fires there.  Points and their fault
kinds:

================== ========================================================
point              armed kinds
================== ========================================================
session.begin      ``clock-skew`` (skew applies for the whole session)
skinit.pre-measure ``slb-bit-flip``
tpm.command        ``tpm-transient`` / ``tpm-permanent`` / ``nv-corrupt``
session.mid        ``dma-probe`` / ``debug-probe`` (mid-PAL hardware probes)
pal.exception      ``pal-exception``
pal.enter/exit,    (bookkeeping only — they gate where TPM faults may
session.end        strike, see below)
================== ========================================================

TPM-command faults are gated to strike only *inside the PAL* or *outside
any session* (e.g. during attestation quotes).  The SLB Core's own
bookkeeping commands — the slb-init extend, the closing io/sentinel
extends — are exempt: a fault there would model broken hardware wedging
the platform mid-suspend, which the paper's software-visible fault model
(and this simulation's "OS always resumes" invariant) excludes.

Every fault actually fired is recorded on the injector **and** emitted as
a ``source="fault"`` trace event, making campaign runs replayable from the
trace alone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.crypto.sha1 import sha1
from repro.errors import FaultPlanError, PALRuntimeError, TPMPermanentError, TPMTransientError
from repro.faults.plan import ANY_MACHINE, ANY_SESSION, FaultPlan, FaultSpec
from repro.osim.attacker import Attacker, ProbeResult
from repro.tpm.nvram import flip_bit

#: Injection points components may fire (documented in docs/FAULTS.md).
INJECTION_POINTS = (
    "session.begin",
    "session.end",
    "skinit.pre-measure",
    "tpm.command",
    "pal.enter",
    "session.mid",
    "pal.exception",
    "pal.exit",
)


class FaultInjector:
    """Executes a fault plan against the machine's injection points."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Chronological record of every fault fired (dicts; JSON-friendly).
        self.fired: List[Dict[str, Any]] = []
        #: Hardware probe outcomes gathered mid-session.
        self.probe_results: List[ProbeResult] = []
        #: Probes that *obtained* protected data — must stay empty.
        self.leaks: List[Dict[str, Any]] = []
        self._remaining = {i: spec.count for i, spec in enumerate(plan.specs)}
        self._session_index = -1
        self._in_session = False
        self._in_pal = False
        self._skewed = False
        self._platform = None
        self._machine_id: Optional[str] = None
        self._attacker: Optional[Attacker] = None

    # -- wiring ---------------------------------------------------------------

    def install(self, platform) -> "FaultInjector":
        """Attach to a :class:`~repro.core.session.FlickerPlatform`.

        On a fleet machine (one carrying a machine id), specs addressed
        to *other* machines never arm here — a single plan can drive a
        whole fleet with each injector seeing only its own faults.
        """
        self._platform = platform
        self._machine_id = platform.machine.machine_id
        platform.machine.fault_injector = self
        return self

    @property
    def session_index(self) -> int:
        """Logical index of the current (or most recent) session."""
        return self._session_index

    # -- spec matching --------------------------------------------------------

    def _armed(self, kinds, op: str = "") -> List[int]:
        """Indices of specs armed for the current session and ``op``."""
        hits = []
        for i, spec in enumerate(self.plan.specs):
            if spec.kind not in kinds:
                continue
            if spec.session not in (ANY_SESSION, self._session_index):
                continue
            if spec.machine not in (ANY_MACHINE, self._machine_id):
                continue
            if spec.op and spec.op != op:
                continue
            # Permanent faults never heal; everything else consumes count.
            if spec.kind != "tpm-permanent" and self._remaining[i] <= 0:
                continue
            hits.append(i)
        return hits

    def _record(self, index: int, point: str, machine, **detail) -> FaultSpec:
        spec = self.plan.specs[index]
        if spec.kind != "tpm-permanent":
            self._remaining[index] -= 1
        entry = {
            "kind": spec.kind,
            "point": point,
            "session": self._session_index,
            "spec": index,
            **detail,
        }
        self.fired.append(entry)
        machine.trace.emit(machine.clock.now(), "fault", spec.kind,
                           point=point, session=self._session_index,
                           spec=index, **detail)
        return spec

    # -- dispatch -------------------------------------------------------------

    def fire(self, point: str, machine, **context: Any) -> Any:
        """Handle one injection point; called by :meth:`Machine.fire_fault`."""
        if point == "session.begin":
            self._session_index += 1
            self._in_session = True
            for i in self._armed(("clock-skew",)):
                spec = self._record(i, point, machine,
                                    percent=self.plan.specs[i].magnitude)
                machine.clock.set_skew(spec.magnitude / 100.0)
                self._skewed = True
            return None
        if point == "session.end":
            self._in_session = False
            self._in_pal = False
            if self._skewed:
                machine.clock.set_skew(1.0)
                self._skewed = False
            return None
        if point == "pal.enter":
            self._in_pal = True
            return None
        if point == "pal.exit":
            self._in_pal = False
            return None
        if point == "skinit.pre-measure":
            return self._fire_slb_flip(point, machine, **context)
        if point == "tpm.command":
            return self._fire_tpm(point, machine, **context)
        if point == "session.mid":
            return self._fire_probes(point, machine, **context)
        if point == "pal.exception":
            for i in self._armed(("pal-exception",)):
                self._record(i, point, machine)
                raise PALRuntimeError("injected fault: PAL exception")
            return None
        raise FaultPlanError(f"unknown injection point {point!r}")

    # -- per-point handlers ---------------------------------------------------

    def _fire_slb_flip(self, point: str, machine, slb_base: int, length: int):
        for i in self._armed(("slb-bit-flip",)):
            spec = self.plan.specs[i]
            original = machine.memory.read(slb_base, length)
            entry_routine = machine.lookup_executable(sha1(original))
            # Keep the strike past the 4-byte header: the fault model is
            # corrupted *code*, not an image the hardware refuses to parse.
            bit = 32 + spec.magnitude % (length * 8 - 32)
            tampered = flip_bit(original, bit)
            machine.memory.write(slb_base, tampered)
            if entry_routine is not None:
                # Tampered code still *runs* (hardware executes whatever
                # bytes are present); PCR 17 records its true measurement.
                machine.register_executable(tampered, entry_routine)
            self._record(i, point, machine, bit=bit)
        return None

    def _fire_tpm(self, point: str, machine, op: str, **context: Any):
        if self._in_session and not self._in_pal:
            return None  # SLB Core bookkeeping commands are exempt (above)
        for i in self._armed(("tpm-transient", "tpm-permanent", "nv-corrupt"), op=op):
            spec = self.plan.specs[i]
            if spec.kind == "nv-corrupt":
                if op != "nv_write":
                    continue
                self._record(i, point, machine, op=op, bit=spec.magnitude)
                return flip_bit(context["data"], spec.magnitude)
            self._record(i, point, machine, op=op)
            if spec.kind == "tpm-transient":
                raise TPMTransientError(f"injected transient fault on {op}")
            raise TPMPermanentError(f"injected permanent fault on {op}")
        return None

    def _fire_probes(self, point: str, machine, layout=None, **context: Any):
        armed = self._armed(("dma-probe", "debug-probe"))
        if not armed or layout is None:
            return None
        if self._attacker is None:
            self._attacker = Attacker(self._platform.kernel)
        for i in armed:
            spec = self.plan.specs[i]
            if spec.kind == "dma-probe":
                result = self._attacker.dma_probe_checked(layout.base, 64)
            else:
                result = self._attacker.debugger_probe_checked(layout.base, 64)
            self.probe_results.append(result)
            self._record(i, point, machine, vector=result.vector,
                         blocked=result.blocked)
            if not result.blocked:
                # The probe read live PAL memory mid-session: that is a
                # secret leak, the outcome class that must never occur.
                self.leaks.append({
                    "kind": spec.kind,
                    "session": self._session_index,
                    "addr": result.addr,
                    "length": result.length,
                })
        return None
