"""One-call Flicker session orchestration.

:class:`FlickerPlatform` assembles a complete simulated deployment — the
machine, the untrusted kernel, the flicker-module, the TPM quote daemon,
and a Privacy CA — and exposes the API the applications in
:mod:`repro.apps` build on:

* :meth:`FlickerPlatform.execute_pal` — build the SLB for a PAL, stage
  inputs, run a session, and return a :class:`SessionResult`
  with per-phase virtual timings (the Figure 2 timeline).
* :meth:`FlickerPlatform.attest` — have the tqd answer a challenge for the
  most recent session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.attestation import Attestation, FlickerVerifier
from repro.core.flicker_module import DEFAULT_NONCE, FlickerModule
from repro.core.pal import PAL
from repro.core.slb import SLBImage, build_slb
from repro.core.slb_core import SLBCoreResult
from repro.errors import (
    AttestationError,
    PALRuntimeError,
    SessionAbortedError,
    TPMTransientError,
)
from repro.hw.machine import Machine
from repro.osim.kernel import UntrustedKernel
from repro.osim.network import NetworkLink
from repro.osim.tpm_driver import TPMQuoteDaemon
from repro.sim.timing import DEFAULT_PROFILE, TimingProfile
from repro.tpm.privacy_ca import PrivacyCA

#: PCR indices a standard Flicker attestation covers.
ATTESTED_PCRS = (17,)


@dataclass(frozen=True)
class RetryPolicy:
    """How the platform responds to transient faults.

    A session that dies on a :class:`~repro.errors.TPMTransientError` is
    re-run after an exponential backoff on the *virtual* clock.  Anything
    else — a permanent TPM fault, a PAL bug — is never retried; the
    platform fails closed with :class:`~repro.errors.SessionAbortedError`
    (permanent fault) or the original :class:`PALRuntimeError`.
    """

    #: Total attempts including the first (1 disables retries).
    max_attempts: int = 3
    #: Virtual milliseconds before the first retry.
    backoff_ms: float = 8.0
    #: Backoff growth factor per retry.
    multiplier: float = 2.0


#: The policy :meth:`FlickerPlatform.execute_image` and
#: :meth:`FlickerPlatform.attest` retry under.
RETRY_POLICY = RetryPolicy()


@dataclass
class SessionResult:
    """Everything an application learns from one Flicker session."""

    outputs: bytes
    image: SLBImage
    nonce: bytes
    inputs: bytes
    #: (label, measurement) extends that reached PCR 17, in order.
    event_log: Tuple[Tuple[str, bytes], ...]
    #: Virtual milliseconds attributed to each Figure 2 phase.
    phase_ms: Dict[str, float] = field(default_factory=dict)
    #: Virtual milliseconds for the whole session.
    total_ms: float = 0.0
    #: Per-TPM-operation breakdown within the session (Table 1/4/Fig 9 rows).
    tpm_ms: Dict[str, float] = field(default_factory=dict)
    #: Number of transient-fault retries this session needed (0 = first try).
    retries: int = 0
    #: vTPM tenant this session ran for (``None`` = the platform itself).
    tenant: Optional[str] = None

    def phase(self, name: str) -> float:
        """Convenience accessor for a phase timing (0.0 if absent)."""
        return self.phase_ms.get(name, 0.0)

    #: Canonical Figure 2 phase order for rendering.
    FIGURE2_PHASES = (
        "init-slb", "suspend-os", "skinit", "senter", "slb-init",
        "pal-exec", "cleanup", "extend-pcr", "resume-os", "restore-os",
    )

    def format_phases(self) -> str:
        """Human-readable Figure 2 timeline of this session."""
        lines = []
        for phase in self.FIGURE2_PHASES:
            if phase in self.phase_ms:
                lines.append(f"{phase:<12} {self.phase_ms[phase]:9.3f} ms")
        lines.append(f"{'TOTAL':<12} {self.total_ms:9.3f} ms")
        return "\n".join(lines)


class FlickerPlatform:
    """A fully assembled Flicker deployment on one simulated machine."""

    def __init__(
        self,
        profile: TimingProfile = DEFAULT_PROFILE,
        seed: int = 2008,
        functional_rsa_bits: int = 512,
        tpm_key_bits: int = 512,
        platform_label: str = "hp-dc5750",
        multicore_isolation: bool = False,
        launch: str = "svm",
        observability: bool = False,
        clock=None,
        machine_id: Optional[str] = None,
    ) -> None:
        acm = None
        intel_authority = None
        if launch == "txt":
            from repro.hw.txt import IntelACMAuthority

            intel_authority = IntelACMAuthority(seed=seed)
            acm = intel_authority.sign_acm(b"flicker-sinit-acm" * 256)
        self.launch = launch
        self.acm = acm
        self.machine = Machine(
            profile=profile,
            seed=seed,
            tpm_key_bits=tpm_key_bits,
            multicore_isolation=multicore_isolation,
            intel_acm_authority=intel_authority,
            clock=clock,
            machine_id=machine_id,
        )
        self.kernel = UntrustedKernel(self.machine)
        self.flicker = FlickerModule(
            functional_rsa_bits=functional_rsa_bits, launch=launch, acm=acm
        )
        self.kernel.load_module(self.flicker)
        self.privacy_ca = PrivacyCA(self.machine.rng)
        self.platform_label = platform_label
        self.tqd = TPMQuoteDaemon(self.kernel, self.privacy_ca, platform_label)
        self.network = NetworkLink(
            self.machine.clock,
            self.machine.trace,
            one_way_ms=profile.host.network_one_way_ms,
            hops=profile.host.network_hops,
        )
        if observability:
            import repro.obs  # noqa: F401  (registers the hub factory)

            self.machine.enable_observability()
        self._installed: Optional[SLBImage] = None
        self._last: Optional[SessionResult] = None
        self._vtpm = None

    @classmethod
    def template(cls, **config) -> "PlatformTemplate":
        """A :class:`~repro.core.template.PlatformTemplate` for stamping
        out many platforms of one configuration.

        ``template(**config).clone(seed=s)`` is byte-identical to
        ``FlickerPlatform(seed=s, **config)``; it is the fleet's
        construction path.  Accepts the same keyword arguments as this
        constructor except the per-machine ``clock`` / ``machine_id``
        (those go to ``clone``).
        """
        from repro.core.template import PlatformTemplate

        return PlatformTemplate(**config)

    @property
    def obs(self):
        """The machine's observability hub, or ``None`` when disabled."""
        return self.machine.obs

    @property
    def vtpm(self):
        """The platform's vTPM multiplexer (:mod:`repro.vtpm`), created
        lazily on first use — single-tenant deployments never construct
        it, so their RNG streams and traces are untouched."""
        if self._vtpm is None:
            from repro.vtpm import VTPMMultiplexer

            self._vtpm = VTPMMultiplexer(self)
        return self._vtpm

    @property
    def machine_id(self) -> Optional[str]:
        """Fleet identity of this platform's machine (``None`` standalone)."""
        return self.machine.machine_id

    # -- building and installing SLBs -----------------------------------------------

    def build(self, pal: PAL, optimize: bool = True) -> SLBImage:
        """The SLB image for a PAL (one per PAL class, see
        :func:`~repro.core.slb.build_slb`)."""
        return build_slb(pal, optimize=optimize)

    def install(self, image: SLBImage) -> None:
        """Install an SLB through the sysfs interface (as an application
        process would: ``open``/``write`` on ``flicker/slb``)."""
        self.kernel.sysfs.write("flicker/slb", image.image)
        self._installed = image

    # -- running sessions ----------------------------------------------------------------

    def execute_pal(
        self,
        pal: PAL,
        inputs: bytes = b"",
        nonce: bytes = DEFAULT_NONCE,
        optimize: bool = True,
        tenant: Optional[str] = None,
    ) -> SessionResult:
        """Run one Flicker session of ``pal`` and return its result.

        ``tenant`` runs the session on behalf of a vTPM tenant: the
        hardware session is identical, but its event log is mirrored
        into the tenant's virtual PCR 17 afterwards so the tenant can
        attest it (:meth:`attest` with the same ``tenant``).

        Raises :class:`~repro.errors.PALRuntimeError` if the PAL faulted
        (the OS is restored first).
        """
        if self.launch == "txt":
            optimize = False  # SENTER measures the full MLE itself
        image = self.build(pal, optimize=optimize)
        return self.execute_image(image, inputs=inputs, nonce=nonce,
                                  tenant=tenant)

    def execute_image(
        self,
        image: SLBImage,
        inputs: bytes = b"",
        nonce: bytes = DEFAULT_NONCE,
        tenant: Optional[str] = None,
    ) -> SessionResult:
        """Run one session of an already built SLB image.

        Sessions that die on a transient TPM fault are retried per
        :data:`RETRY_POLICY` (the whole session re-runs — PCR 17
        is re-established from scratch by the new SKINIT, so a retry is
        indistinguishable from a fresh session to the verifier).  Permanent
        faults and exhausted retries raise
        :class:`~repro.errors.SessionAbortedError`.
        """
        if self._installed is not image:
            self.install(image)
        clock = self.machine.clock
        policy = RETRY_POLICY
        obs = self.machine.obs
        start = clock.now()
        backoff_ms = policy.backoff_ms
        attempt = 1
        self.machine.fire_fault("session.begin", image=image, nonce=nonce)
        session_span = None
        if obs is not None:
            span_args = {"pal": image.pal.name}
            if tenant is not None:
                span_args["tenant"] = tenant
            session_span = obs.open_span(
                "session", category="session", **span_args
            )
        try:
            while True:
                try:
                    result = self._execute_attempt(image, inputs, nonce)
                    break
                except PALRuntimeError as exc:
                    if exc.error_type == "TPMPermanentError":
                        if obs is not None:
                            obs.registry.counter(
                                "session_aborts_total",
                                "Sessions that failed closed",
                            ).inc(pal=image.pal.name, reason="permanent-fault")
                        error = SessionAbortedError(
                            f"session failed closed on permanent fault: {exc}"
                        )
                        error.error_type = exc.error_type
                        raise error from exc
                    if not exc.transient:
                        raise
                    if attempt >= policy.max_attempts:
                        if obs is not None:
                            obs.registry.counter(
                                "session_aborts_total",
                                "Sessions that failed closed",
                            ).inc(pal=image.pal.name, reason="retries-exhausted")
                        error = SessionAbortedError(
                            f"session failed closed after {attempt} attempts: {exc}"
                        )
                        error.transient = True
                        error.error_type = exc.error_type
                        raise error from exc
                    clock.advance(backoff_ms)
                    self.machine.trace.emit(
                        clock.now(), "flicker", "session-retry",
                        attempt=attempt, backoff_ms=backoff_ms,
                    )
                    if obs is not None:
                        obs.registry.counter(
                            "session_retries_total",
                            "Transient-fault session retries",
                        ).inc(pal=image.pal.name)
                        obs.event("session.retry", category="session",
                                  attempt=attempt, backoff_ms=backoff_ms)
                    backoff_ms *= policy.multiplier
                    attempt += 1
        finally:
            self.machine.fire_fault("session.end", image=image)
            if session_span is not None:
                obs.close_span(session_span, attempts=attempt)
        result.retries = attempt - 1
        result.total_ms = clock.elapsed_since(start)
        result.tenant = tenant
        self._last = result
        if tenant is not None:
            self.vtpm.record_session(tenant, result)
        if obs is not None:
            self._record_session_metrics(obs, image, result)
        return result

    def _record_session_metrics(self, obs, image: SLBImage, result: "SessionResult") -> None:
        """Fold one completed session into the metrics registry (Figure 2 /
        Figure 8 aggregates: per-phase and per-module virtual timings)."""
        pal = image.pal.name
        obs.registry.counter("sessions_total", "Completed Flicker sessions").inc(pal=pal)
        obs.registry.histogram(
            "session_total_ms", "End-to-end session latency"
        ).observe(result.total_ms, pal=pal)
        for phase, ms in result.phase_ms.items():
            obs.registry.histogram(
                "session_phase_ms", "Virtual time per Figure 2 phase"
            ).observe(ms, phase=phase)
        for module in image.linked_modules:
            obs.registry.counter(
                "session_module_links_total", "Sessions linking each PAL module"
            ).inc(module=module)

    def _execute_attempt(
        self, image: SLBImage, inputs: bytes, nonce: bytes
    ) -> SessionResult:
        clock = self.machine.clock
        clock.reset_spans()
        self.kernel.sysfs.write("flicker/inputs", inputs)
        start = clock.now()
        tpm_totals = self.machine.tpm.op_ms
        tpm_before = dict(tpm_totals)
        self.kernel.sysfs.write("flicker/control", b"go:" + nonce.hex().encode("ascii"))
        core_result: SLBCoreResult = self.flicker.last_result
        outputs = self.kernel.sysfs.read("flicker/outputs")
        spans = clock.span_totals()
        return SessionResult(
            outputs=outputs,
            image=image,
            nonce=nonce,
            inputs=inputs,
            event_log=core_result.event_log,
            phase_ms={k: v for k, v in spans.items()},
            total_ms=clock.elapsed_since(start),
            tpm_ms={
                op: total - tpm_before.get(op, 0.0)
                for op, total in tpm_totals.items()
                if total - tpm_before.get(op, 0.0) > 0
            },
        )

    # -- attestation -----------------------------------------------------------------------

    def attest(self, nonce: bytes, session: Optional[SessionResult] = None,
               tenant: Optional[str] = None) -> Attestation:
        """Produce the attestation for a session (default: the most recent).

        Runs on the *untrusted* OS — the tqd loads the AIK and quotes PCR
        17 with the verifier's nonce (§4.4.1).  Transient TPM faults during
        the quote are retried under :data:`RETRY_POLICY`;
        exhausted retries raise :class:`~repro.errors.AttestationError`.

        With ``tenant``, the multiplexer answers instead: a quote over the
        tenant's *virtual* PCR 17, signed by the tenant AIK (whose
        certificate chains to the same Privacy CA, so :meth:`verifier`
        verifies it unchanged)."""
        if tenant is not None:
            return self.vtpm.attest(tenant, nonce, session)
        target = session or self._last
        if target is None:
            raise AttestationError("no session to attest")
        pcrs = (17, 18) if self.launch == "txt" else ATTESTED_PCRS
        policy = RETRY_POLICY
        obs = self.machine.obs
        backoff_ms = policy.backoff_ms
        attempt = 1
        while True:
            try:
                quote, cert = self.tqd.attest(nonce, pcrs)
                break
            except TPMTransientError as exc:
                if attempt >= policy.max_attempts:
                    if obs is not None:
                        obs.registry.counter(
                            "attest_failures_total",
                            "Attestations abandoned after exhausted retries",
                        ).inc()
                    raise AttestationError(
                        f"quote failed after {attempt} attempts: {exc}"
                    ) from exc
                self.machine.clock.advance(backoff_ms)
                self.machine.trace.emit(
                    self.machine.clock.now(), "flicker", "attest-retry",
                    attempt=attempt, backoff_ms=backoff_ms,
                )
                if obs is not None:
                    obs.registry.counter(
                        "attest_retries_total", "Transient-fault quote retries"
                    ).inc()
                backoff_ms *= policy.multiplier
                attempt += 1
        return Attestation(
            quote=quote,
            aik_certificate=cert,
            event_log=target.event_log,
            inputs=target.inputs,
            outputs=target.outputs,
            nonce=nonce,
        )

    def verifier(self) -> FlickerVerifier:
        """A verifier trusting this deployment's Privacy CA."""
        return FlickerVerifier(self.privacy_ca.public_key)

    @property
    def last_session(self) -> Optional[SessionResult]:
        """The most recent session result."""
        return self._last
