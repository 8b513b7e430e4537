"""The vTPM multiplexer: many mutually-distrusting tenants, one chip.

PAPERS.md's simTPM and the Berger et al. vTPM line show the layer this
module adds to the Flicker platform: per-tenant virtual TPM instances
(:class:`repro.vtpm.instance.VirtualTPM`) multiplexed over the single
hardware TPM model, with the multiplexer itself running in the untrusted
OS — **outside** every PAL's TCB (the static audit in
:mod:`repro.analysis.tcb` forbids ``repro.vtpm`` from the TCB closure).

What stays hardware-backed:

* The tenant's session chain.  A tenant's Flicker session runs on the
  real machine — SKINIT, hardware PCR 17, the SLB Core's extends.  The
  multiplexer then mirrors that session's event log into the tenant's
  *virtual* PCR 17, so a quote over the virtual register attests the
  same chain :func:`repro.core.attestation.expected_pcr17` predicts.
* Key roots.  Each tenant's RNG stream forks off the machine RNG, and
  the tenant's AIK is enrolled with the platform's real Privacy CA
  (label ``<platform>/tenant/<name>``), so existing verifiers validate
  tenant attestations with no changes.
* Monotonic-counter partitioning.  Tenant-bound hardware interfaces
  (:meth:`repro.tpm.tpm.TPM.interface`) enforce the counter partition
  at the chip; the instance's virtual counters carry the same
  ``owner_tenant`` tag so the partition survives migration.

Migration: :meth:`VTPMMultiplexer.export_tenant` emits a plain-dict
snapshot; importing it on another machine's multiplexer resumes the
tenant there — same keys, same virtual PCRs, same counters, same
sealed-storage namespace.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.attestation import Attestation
from repro.errors import VTPMError
from repro.sim.timing import (
    BROADCOM_BCM0102,
    INFINEON_1_2,
    SIMTPM_MOBILE,
    TPMTimings,
)
from repro.tpm.privacy_ca import AIKCertificate
from repro.tpm.tpm import LOCALITY_OS
from repro.vtpm.instance import VirtualTPM

#: Named per-tenant latency scenarios: the paper's discrete chips vs a
#: simTPM-class mobile secure element.
TENANT_SCENARIOS: Dict[str, TPMTimings] = {
    "discrete": BROADCOM_BCM0102,
    "infineon": INFINEON_1_2,
    "mobile": SIMTPM_MOBILE,
}

#: Version tag carried by migration snapshots.
MIGRATION_SCHEMA = "repro-vtpm-migration/1"


class VTPMMultiplexer:
    """Per-platform vTPM multiplexer over one hardware TPM.

    Obtain one via :attr:`repro.core.session.FlickerPlatform.vtpm` — the
    platform creates it lazily, so single-tenant deployments never pay
    for (or perturb) anything.
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        machine = platform.machine
        self._machine = machine
        self._rng = machine.rng.fork("vtpm-mux")
        self._tenants: Dict[str, VirtualTPM] = {}
        self._certs: Dict[str, AIKCertificate] = {}
        self._hw_interfaces: Dict[str, object] = {}
        self._last_session: Dict[str, object] = {}

    # -- tenant lifecycle -----------------------------------------------------

    @property
    def tenants(self):
        """Resident tenant names, sorted."""
        return tuple(sorted(self._tenants))

    def create_tenant(self, name: str, scenario: str = "discrete",
                      timings: Optional[TPMTimings] = None) -> VirtualTPM:
        """Provision a fresh tenant instance on this machine.

        ``scenario`` picks the tenant's latency profile from
        :data:`TENANT_SCENARIOS`; pass ``timings`` to use a custom one.
        """
        if name in self._tenants:
            raise VTPMError(f"tenant {name!r} already exists on this machine")
        if timings is None:
            try:
                timings = TENANT_SCENARIOS[scenario]
            except KeyError:
                raise VTPMError(
                    f"unknown tenant latency scenario {scenario!r} "
                    f"(known: {', '.join(sorted(TENANT_SCENARIOS))})"
                ) from None
        vt = VirtualTPM(
            tenant=name,
            rng=self._rng.fork(f"tenant:{name}"),
            timings=timings,
            clock=self._machine.clock,
            trace=self._machine.trace,
            obs=self._machine.obs,
        )
        self._register(vt)
        return vt

    def _register(self, vt: VirtualTPM) -> None:
        self._tenants[vt.tenant] = vt
        # A tenant-bound hardware interface: the chip itself enforces the
        # per-tenant counter partition for anything the tenant drives
        # directly against hardware NV.
        self._hw_interfaces[vt.tenant] = self._machine.tpm.interface(
            LOCALITY_OS, tenant=vt.tenant)

    def tenant(self, name: str) -> VirtualTPM:
        """The named tenant's instance; :class:`VTPMError` if absent."""
        try:
            return self._tenants[name]
        except KeyError:
            raise VTPMError(
                f"no tenant {name!r} on this machine "
                f"(resident: {', '.join(self.tenants) or 'none'})"
            ) from None

    def hardware_interface(self, name: str):
        """The tenant's tenant-bound hardware TPM interface."""
        self.tenant(name)
        return self._hw_interfaces[name]

    def remove_tenant(self, name: str) -> None:
        """Evict a tenant (the destructive half of a migration)."""
        self.tenant(name)
        del self._tenants[name]
        del self._hw_interfaces[name]
        self._certs.pop(name, None)
        self._last_session.pop(name, None)

    # -- sessions and attestation ---------------------------------------------

    def record_session(self, name: str, session) -> None:
        """Mirror a completed hardware session into the tenant's virtual
        PCR 17: virtual dynamic reset, then the session's event-log
        extends, in order.  Called by the platform after every session
        executed with ``tenant=name``."""
        vt = self.tenant(name)
        vt.dynamic_reset()
        for _label, measurement in session.event_log:
            vt.pcr_extend(17, measurement)
        self._last_session[name] = session

    def aik_certificate(self, name: str) -> AIKCertificate:
        """The tenant's AIK certificate, enrolled lazily against the
        platform's Privacy CA (same flow as the tqd's platform AIK)."""
        if name not in self._certs:
            vt = self.tenant(name)
            ca = self._platform.privacy_ca
            ca.register_ek(vt.ek_public)
            label = f"{self._platform.platform_label}/tenant/{name}"
            self._certs[name] = ca.issue(vt.aik_public, vt.ek_public, label)
        return self._certs[name]

    def attest(self, name: str, nonce: bytes, session=None) -> Attestation:
        """Answer a challenge for the tenant's most recent session with a
        quote over the *virtual* PCR 17, signed by the tenant AIK."""
        vt = self.tenant(name)
        target = session or self._last_session.get(name)
        if target is None:
            raise VTPMError(f"tenant {name!r} has no session to attest")
        if target.tenant != name:
            raise VTPMError(
                f"session belongs to tenant {target.tenant!r}, "
                f"not {name!r} — refusing cross-tenant attestation"
            )
        quote = vt.quote(nonce, (17,))
        return Attestation(
            quote=quote,
            aik_certificate=self.aik_certificate(name),
            event_log=target.event_log,
            inputs=target.inputs,
            outputs=target.outputs,
            nonce=nonce,
        )

    # -- migration ------------------------------------------------------------

    def export_tenant(self, name: str) -> Dict[str, object]:
        """The tenant's migration snapshot (non-destructive; pair with
        :meth:`remove_tenant` for a move rather than a copy)."""
        vt = self.tenant(name)
        return {
            "schema": MIGRATION_SCHEMA,
            "tenant": name,
            "vtpm": vt.export_state(),
        }

    def import_tenant(self, snapshot: Dict[str, object]) -> VirtualTPM:
        """Resume a migrated tenant on this machine."""
        if not isinstance(snapshot, dict) or "vtpm" not in snapshot:
            raise VTPMError("malformed vTPM migration snapshot: no payload")
        if snapshot.get("schema") != MIGRATION_SCHEMA:
            raise VTPMError(
                f"unsupported migration snapshot schema "
                f"{snapshot.get('schema')!r} (expected {MIGRATION_SCHEMA})"
            )
        vt = VirtualTPM.from_state(snapshot["vtpm"], self._machine.clock,
                                   self._machine.trace, self._machine.obs)
        if vt.tenant != snapshot.get("tenant"):
            raise VTPMError(
                f"malformed vTPM migration snapshot: payload is for tenant "
                f"{vt.tenant!r}, not {snapshot.get('tenant')!r}"
            )
        if vt.tenant in self._tenants:
            raise VTPMError(
                f"tenant {vt.tenant!r} already resident — refusing to overwrite"
            )
        self._register(vt)
        return vt


def migrate_tenant(source_platform, destination_platform,
                   name: str) -> VirtualTPM:
    """Move a tenant between two platforms: export, evict, import.

    The tenant's next attestation on the destination chains to the same
    AIK certificate, so verifiers see one continuous tenant identity.
    """
    snapshot = source_platform.vtpm.export_tenant(name)
    source_platform.vtpm.remove_tenant(name)
    return destination_platform.vtpm.import_tenant(snapshot)


__all__ = [
    "MIGRATION_SCHEMA",
    "TENANT_SCENARIOS",
    "VTPMMultiplexer",
    "migrate_tenant",
]
