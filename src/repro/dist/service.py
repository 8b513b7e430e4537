"""The work-distribution service: BOINC's server components on one
discrete-event schedule.

Three cooperating processes per run:

* the **dispatcher** (server clock) — generates unit batches into the
  :class:`~repro.dist.records.JobDatabase`, matches idle clients to
  units needing votes, arms per-assignment timeout events, and applies
  quorum decisions;
* the **validator** (the fleet's dedicated verification clock) — checks
  each returned result's Flicker attestation plus the structural claims
  (right unit, complete range), charging the RSA public-op cost where a
  backlog can never stall dispatch;
* one **client process per fleet machine** — real
  :class:`~repro.apps.distributed.BOINCClient` sessions, shaped by a
  :class:`~repro.dist.client.ClientBehavior`.

No wall clock anywhere: timeouts are scheduler events, ordering is the
``(time, seq)`` heap, and the final report is a pure function of the
job database — byte-identical across runs, worker counts, and replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from collections import deque

from repro.apps.distributed import (
    VERIFY_PUBLIC_OPS,
    BOINCClient,
    ClientProgress,
    FactoringState,
    FactoringWorkUnit,
    StopWork,
)
from repro.crypto.sha1 import sha1
from repro.dist.client import ClientBehavior
from repro.dist.quorum import QuorumPolicy, UnitQuorum
from repro.dist.records import AssignmentRecord, JobDatabase, UnitRecord
from repro.dist.reputation import ReputationBook, ReputationPolicy
from repro.errors import PALRuntimeError

#: Report schema tag.
REPORT_SCHEMA = "repro-dist-report/1"


@dataclass(frozen=True)
class JobSpec:
    """One project's workload and service knobs."""

    n: int
    total_units: int
    range_per_unit: int = 400
    batch_size: int = 16
    start: int = 2
    #: Flicker session slice length on the clients.
    slice_ms: float = 2000.0
    #: Per-assignment response deadline (virtual ms).
    timeout_ms: float = 60_000.0
    #: Safety valve: total assignments per unit before it is abandoned.
    max_attempts_per_unit: int = 12

    def __post_init__(self) -> None:
        if self.total_units < 1:
            raise ValueError("total_units must be positive")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_attempts_per_unit < 1:
            raise ValueError("max_attempts_per_unit must be positive")


# -- protocol messages ---------------------------------------------------------


@dataclass(frozen=True)
class DistAssignment:
    """Server → client: run this unit, attest with this nonce.

    ``tenant`` ("" = untenanted) names the vTPM tenant the unit belongs
    to; the client must execute and attest inside that tenant's virtual
    TPM (:mod:`repro.vtpm`)."""

    seq: int
    unit_id: str
    index: int
    n: int
    start: int
    end: int
    nonce: bytes
    tenant: str = ""


@dataclass(frozen=True)
class DistResult:
    """Client → server: a finished, attested unit."""

    machine_id: str
    seq: int
    unit_id: str
    progress: ClientProgress
    session: Any
    attestation: Any
    nonce: bytes
    tenant: str = ""


@dataclass(frozen=True)
class DistFailure:
    """Client → server: the session aborted (fail-closed platform)."""

    machine_id: str
    seq: int
    unit_id: str
    reason: str


@dataclass(frozen=True)
class _Timeout:
    """Scheduler → dispatcher: an assignment's deadline passed."""

    seq: int


@dataclass(frozen=True)
class _Verdict:
    """Validator → dispatcher: one verified (or rejected) result."""

    seq: int
    ok: bool
    reason: str
    digest: str
    found: Tuple[int, ...]


@dataclass(frozen=True)
class _StopVerify:
    """Dispatcher → validator: no more results are coming."""


# -- the service ---------------------------------------------------------------


class WorkDistributionService:
    """Run one distribution project on a :class:`FlickerFleet`.

    Usage::

        fleet = FlickerFleet(num_machines=8, seed=2008)
        spec = JobSpec(n=15015 * 1_000_003, total_units=32)
        service = WorkDistributionService(fleet, spec)
        report = service.run()

    ``behaviors`` maps machine index → :class:`ClientBehavior`
    (unlisted machines are honest).  ``clients`` limits the job to the
    first ``clients`` machines of the fleet (default: all of them); the
    service never touches the rest, so on a lazily built fleet they are
    never constructed.  Faults are injected from outside
    exactly as for any fleet run: install a
    :class:`~repro.faults.FaultInjector` on ``fleet.hosts[i].platform``
    before calling :meth:`run`.
    """

    def __init__(
        self,
        fleet,
        spec: JobSpec,
        quorum: QuorumPolicy = QuorumPolicy(),
        reputation: ReputationPolicy = ReputationPolicy(),
        behaviors: Optional[Dict[int, ClientBehavior]] = None,
        job_seed: Optional[int] = None,
        tenants: Optional[Sequence[str]] = None,
        clients: Optional[int] = None,
    ) -> None:
        count = len(fleet.hosts) if clients is None else clients
        if not 1 <= count <= len(fleet.hosts):
            raise ValueError("clients must be between 1 and the fleet size")
        self.fleet = fleet
        self._hosts = [fleet.hosts[i] for i in range(count)]
        self.spec = spec
        self.quorum_policy = quorum
        self.reputation_policy = reputation
        self.behaviors = dict(behaviors or {})
        #: vTPM tenants the job's units cycle through (unit ``i`` belongs
        #: to ``tenants[i % len(tenants)]``); empty = the classic
        #: untenanted job, byte-identical to pre-multi-tenant runs.
        self.tenants = tuple(tenants or ())
        for index in self.behaviors:
            if not 0 <= index < count:
                raise ValueError(f"behavior for machine {index} out of range")
        self.book = ReputationBook(reputation)
        self.db = JobDatabase(
            job_seed=fleet.seed if job_seed is None else job_seed,
            n=spec.n, total_units=spec.total_units,
            range_per_unit=spec.range_per_unit,
            batch_size=spec.batch_size, start=spec.start,
        )
        self._quorums: Dict[str, UnitQuorum] = {}
        self._open_units: List[str] = []
        self._idle: Deque[str] = deque()
        self._outstanding: Dict[int, AssignmentRecord] = {}
        self._timeouts: Dict[int, Any] = {}
        self._participants: Dict[str, Set[str]] = {}
        self._inflight: Dict[str, int] = {}
        self._dead: Set[str] = set()
        self._resolved = 0
        self._last_resolved_ms = 0.0
        self._verify_count = 0
        self._verify_backlog = 0
        self._max_verify_backlog = 0
        self._ran = False
        self._hub = fleet.server_hub
        self._metrics = (fleet.server_hub.registry
                         if fleet.server_hub is not None else None)

    # -- orchestration ----------------------------------------------------------

    def run(self) -> "DistReport":
        """Spawn every process, drive the schedule dry, and report."""
        if self._ran:
            raise RuntimeError("a WorkDistributionService runs exactly once")
        self._ran = True
        for index, host in enumerate(self._hosts):
            behavior = self.behaviors.get(index, ClientBehavior())
            self.fleet.spawn(host, self._client_proc(host, behavior))
        self.fleet.spawn_server(self._dispatcher())
        self.fleet.spawn_verifier(self._validator())
        self.fleet.run()
        self._finalize()
        return build_report(self.db)

    # -- the dispatcher (server clock) ------------------------------------------

    def _dispatcher(self):
        for host in self._hosts:
            self._idle.append(host.machine_id)
        self._assign_all()
        while self._resolved < self.db.total_units:
            message = yield self.fleet.server_mailbox.receive()
            if isinstance(message, DistResult):
                self._on_result(message)
            elif isinstance(message, DistFailure):
                self._on_failure(message)
            elif isinstance(message, _Timeout):
                self._on_timeout(message)
            elif isinstance(message, _Verdict):
                self._on_verdict(message)
            self._assign_all()
        for event in self._timeouts.values():
            self.fleet.scheduler.cancel(event)
        self._timeouts.clear()
        for host in self._hosts:
            self.fleet.send_to_host(host, StopWork())
        self.fleet.post_local(self.fleet.server_clock,
                              self.fleet.verify_mailbox, _StopVerify())

    # -- work matching ----------------------------------------------------------

    def _needed(self, unit_id: str) -> int:
        """Votes the unit still needs beyond everything in flight."""
        quorum = self._quorums.get(unit_id)
        target = quorum.target if quorum else self._default_target()
        votes = len(quorum.votes) if quorum else 0
        return target - votes - self._inflight.get(unit_id, 0)

    def _default_target(self) -> int:
        return min(self.quorum_policy.base_quorum, len(self._hosts))

    def _eligible(self, client: str, unit_id: str) -> bool:
        return client not in self._participants.get(unit_id, set())

    def _pool_exhausted(self, unit_id: str) -> bool:
        """No vote for this unit can ever arrive any more."""
        if self._inflight.get(unit_id, 0) > 0:
            return False
        participants = self._participants.get(unit_id, set())
        return all(host.machine_id in participants
                   or host.machine_id in self._dead
                   for host in self._hosts)

    def _assign_all(self) -> None:
        """Match idle clients to units needing votes, batching in more
        units whenever current work is saturated."""
        while self._idle:
            self._open_units = [
                u for u in self._open_units
                if self.db.units[u].state not in ("validated", "abandoned")
            ]
            made = False
            for unit_id in self._open_units:
                if self._needed(unit_id) <= 0:
                    continue
                client = self._pick_idle(unit_id)
                if client is not None:
                    self._issue(unit_id, client)
                    made = True
                    break
            if not made and not self._refill():
                break

    def _pick_idle(self, unit_id: str) -> Optional[str]:
        for position, client in enumerate(self._idle):
            if self._eligible(client, unit_id):
                del self._idle[position]
                return client
        return None

    def _refill(self) -> bool:
        batch = self.db.generate_batch()
        if not batch:
            return False
        if self.tenants:
            for record in batch:
                record.tenant = self.tenants[record.index % len(self.tenants)]
        self._open_units.extend(record.unit_id for record in batch)
        if self._hub is not None:
            self._hub.event("dist-batch", category="dist",
                            batch=batch[0].batch, units=len(batch))
        return True

    def _issue(self, unit_id: str, client: str) -> None:
        unit = self.db.units[unit_id]
        now = self.fleet.server_clock.now()
        if unit_id not in self._quorums:
            target, spot = self.book.quorum_for(client, self.quorum_policy)
            target = min(target, len(self._hosts))
            self._quorums[unit_id] = UnitQuorum(unit_id, target)
            unit.quorum = target
            unit.state = "issued"
            unit.issued_at_ms = now
            if spot:
                self.db.client(client).spot_checks += 1
        quorum = self._quorums[unit_id]
        if unit.assignments >= quorum.initial_target:
            unit.resends += 1
        seq = len(self.db.assignments)
        record = AssignmentRecord(
            seq=seq, unit_id=unit_id, client=client,
            round=quorum.rounds, issued_ms=now,
        )
        self.db.assignments.append(record)
        self._outstanding[seq] = record
        self._participants.setdefault(unit_id, set()).add(client)
        self._inflight[unit_id] = self._inflight.get(unit_id, 0) + 1
        unit.assignments += 1
        self.db.client(client).issued += 1
        host = self.fleet.host(client)
        self.fleet.send_to_host(host, DistAssignment(
            seq=seq, unit_id=unit_id, index=unit.index, n=unit.n,
            start=unit.start, end=unit.end, nonce=self._nonce(seq),
            tenant=unit.tenant,
        ))
        self._timeouts[seq] = self.fleet.scheduler.after(
            self.spec.timeout_ms,
            partial(self.fleet.server_mailbox.put, _Timeout(seq)),
            label=f"dist:timeout:{seq}",
        )

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return sha1(b"dist-server" + seq.to_bytes(8, "big"))

    # -- event handlers ---------------------------------------------------------

    def _revive(self, client: str) -> None:
        self._dead.discard(client)
        self._idle.append(client)

    def _on_result(self, message: DistResult) -> None:
        record = self._outstanding.pop(message.seq, None)
        client = self.db.client(message.machine_id)
        client.returned += 1
        if record is None:
            # Past its deadline: the unit moved on without this client.
            late = self.db.assignments[message.seq]
            late.state = "late"
            late.returned_ms = self.fleet.server_clock.now()
            client.late += 1
            self._count("dist_results_late_total")
            self._revive(message.machine_id)
            return
        self.fleet.scheduler.cancel(self._timeouts.pop(record.seq))
        record.returned_ms = self.fleet.server_clock.now()
        self._revive(message.machine_id)
        unit = self.db.units[record.unit_id]
        if unit.state in ("validated", "abandoned"):
            record.state = "discarded"
            self._dec_inflight(record.unit_id)
            return
        record.state = "returned"
        self._verify_backlog += 1
        self._max_verify_backlog = max(self._max_verify_backlog,
                                       self._verify_backlog)
        if self._metrics is not None:
            self._metrics.gauge("dist_verify_queue_depth").set(
                self._verify_backlog)
            self._metrics.histogram("dist_verify_queue_depth_hist").observe(
                self._verify_backlog)
        self.fleet.post_local(self.fleet.server_clock,
                              self.fleet.verify_mailbox, message)

    def _on_failure(self, message: DistFailure) -> None:
        record = self._outstanding.pop(message.seq, None)
        self.db.client(message.machine_id).failures += 1
        self.book.record_slash(message.machine_id)
        self._count("dist_failures_total")
        self._revive(message.machine_id)
        if record is None:
            return
        self.fleet.scheduler.cancel(self._timeouts.pop(record.seq))
        record.state = "failed"
        record.returned_ms = self.fleet.server_clock.now()
        self._dec_inflight(record.unit_id)
        self._apply_decision(record.unit_id)

    def _on_timeout(self, message: _Timeout) -> None:
        record = self._outstanding.pop(message.seq, None)
        if record is None:
            return                       # answered just before the deadline
        self._timeouts.pop(message.seq, None)
        record.state = "timed-out"
        self.db.client(record.client).timeouts += 1
        self.book.record_slash(record.client)
        self._dead.add(record.client)
        self._count("dist_timeouts_total")
        self._dec_inflight(record.unit_id)
        # A newly-dead client can exhaust other units' voter pools.
        for unit_id in list(self._open_units):
            self._apply_decision(unit_id)

    def _on_verdict(self, verdict: _Verdict) -> None:
        record = self.db.assignments[verdict.seq]
        record.verified_ms = self.fleet.server_clock.now()
        self._verify_count += 1
        self._verify_backlog -= 1
        if self._metrics is not None:
            self._metrics.gauge("dist_verify_queue_depth").set(
                self._verify_backlog)
        unit = self.db.units[record.unit_id]
        if unit.state in ("validated", "abandoned"):
            record.state = "discarded"
            self._dec_inflight(record.unit_id)
            return
        if not verdict.ok:
            record.state = "rejected"
            record.reject_reason = verdict.reason
            self.db.client(record.client).rejected += 1
            self.book.record_slash(record.client)
            self._count("dist_results_rejected_total")
            self._dec_inflight(record.unit_id)
            self._apply_decision(record.unit_id)
            return
        record.state = "verified-ok"
        record.digest = verdict.digest
        record.found = verdict.found
        quorum = self._quorums[record.unit_id]
        quorum.add_vote(record.client, verdict.digest)
        self._dec_inflight(record.unit_id)
        self._apply_decision(record.unit_id)

    def _dec_inflight(self, unit_id: str) -> None:
        self._inflight[unit_id] = self._inflight.get(unit_id, 1) - 1

    # -- quorum decisions -------------------------------------------------------

    def _apply_decision(self, unit_id: str) -> None:
        unit = self.db.units[unit_id]
        if unit.state in ("validated", "abandoned", "pending"):
            return
        quorum = self._quorums[unit_id]
        if unit.assignments >= self.spec.max_attempts_per_unit \
                and self._needed(unit_id) > 0:
            self._resolve(unit, quorum, "abandoned")
            return
        pool_exhausted = self._pool_exhausted(unit_id)
        while True:
            decision = quorum.decide(self.quorum_policy,
                                     pool_exhausted=pool_exhausted)
            if decision.outcome != "flag":
                break
            # Escalate, then re-evaluate: with a clamped pool the
            # escalated target may already be met by existing votes
            # (each escalation burns a round, so this terminates).
            unit.state = "flagged"
            unit.flags += 1
            quorum.escalate(self.quorum_policy, len(self._hosts))
            self._count("dist_units_flagged_total")
            if self._hub is not None:
                self._hub.event("dist-unit-flagged", category="dist",
                                unit=unit_id, target=quorum.target)
        if decision.outcome == "validated":
            unit.digest = decision.digest
            for client, digest in quorum.votes:
                record = self.db.client(client)
                if digest == decision.digest:
                    record.valid += 1
                    self.book.record_valid(client)
                else:
                    record.outvoted += 1
                    self.book.record_slash(client)
            for record in self.db.assignments:
                if record.unit_id == unit_id and record.digest == decision.digest:
                    unit.found = record.found
                    break
            self._resolve(unit, quorum, "validated")
        elif decision.outcome == "abandon":
            for client, _ in quorum.votes:
                self.book.record_slash(client)
            self._resolve(unit, quorum, "abandoned")

    def _resolve(self, unit: UnitRecord, quorum: UnitQuorum,
                 state: str) -> None:
        unit.state = state
        unit.resolved_at_ms = self.fleet.server_clock.now()
        self._resolved += 1
        self._last_resolved_ms = max(self._last_resolved_ms,
                                     unit.resolved_at_ms)
        self._count(f"dist_units_{state}_total")
        if self._hub is not None and unit.issued_at_ms is not None:
            self._hub.record_complete(
                "unit-lifecycle", "dist",
                unit.resolved_at_ms - unit.issued_at_ms,
                unit=unit.unit_id, state=state, rounds=quorum.rounds,
                assignments=unit.assignments,
            )

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    # -- the validator (verification clock) -------------------------------------

    def _validator(self):
        while True:
            message = yield self.fleet.verify_mailbox.receive()
            if isinstance(message, _StopVerify):
                return
            verdict = self._verify_one(message)
            self.fleet.post_local(self.fleet.verify_clock,
                                  self.fleet.server_mailbox, verdict)

    def _verify_one(self, message: DistResult) -> _Verdict:
        clock = self.fleet.verify_clock
        ops_ms = (self.fleet.profile.host.rsa1024_public_op_ms
                  * VERIFY_PUBLIC_OPS)
        with clock.span("verify-result"):
            clock.advance(ops_ms)
        verifier = self.fleet.verifier_for(message.machine_id)
        report = verifier.verify(
            message.attestation, message.session.image, message.nonce,
            pal_extends=[sha1(message.progress.state_bytes)],
        )
        if not report.ok:
            return _Verdict(message.seq, False, "attestation", "", ())
        unit = self.db.units[message.unit_id]
        if unit.tenant:
            # Tenanted unit: the quote must come from the unit's tenant —
            # the AIK certificate's subject carries the tenant identity
            # the multiplexer enrolled with the Privacy CA.
            subject = message.attestation.aik_certificate.platform_label
            if (message.tenant != unit.tenant
                    or not subject.endswith(f"/tenant/{unit.tenant}")):
                return _Verdict(message.seq, False, "tenant", "", ())
        state = message.progress.state
        if (state.unit_id != unit.index or state.n != unit.n
                or state.end != unit.end or not state.done):
            return _Verdict(message.seq, False, "state", "", ())
        digest = self._unit_digest(unit.tenant, message.progress.state_bytes)
        return _Verdict(message.seq, True, "", digest, state.found)

    @staticmethod
    def _unit_digest(tenant: str, state_bytes: bytes) -> str:
        """Vote digest; tenant-keyed so quorum votes can never collide
        across tenant boundaries (untenanted stays the plain digest)."""
        if not tenant:
            return sha1(state_bytes).hex()
        return sha1(tenant.encode("utf-8") + b"\x00" + state_bytes).hex()

    # -- the clients ------------------------------------------------------------

    def _tenant_scenario(self, name: str) -> str:
        """Deterministic latency scenario for a tenant: cycle the known
        scenarios in this job's tenant order."""
        from repro.vtpm.mux import TENANT_SCENARIOS

        scenarios = tuple(sorted(TENANT_SCENARIOS))
        return scenarios[self.tenants.index(name) % len(scenarios)]

    def _client_proc(self, host, behavior: ClientBehavior):
        client = BOINCClient(host.platform)
        while True:
            message = yield host.mailbox.receive()
            if isinstance(message, StopWork):
                return
            if behavior.kind == "dropout":
                continue
            tenant = message.tenant or None
            if tenant is not None and tenant not in host.platform.vtpm.tenants:
                host.platform.vtpm.create_tenant(
                    tenant, scenario=self._tenant_scenario(tenant))
            start = message.end if behavior.kind == "lazy" else message.start
            unit = FactoringWorkUnit(unit_id=message.index, n=message.n,
                                     start=start, end=message.end)
            try:
                progress = client.start_unit(unit, tenant=tenant)
                result = None
                while not progress.done:
                    yield 0.0
                    progress, result = client.work_slice(
                        progress, self.spec.slice_ms, nonce=message.nonce,
                        tenant=tenant)
                attestation = host.platform.attest(message.nonce, result,
                                                   tenant=tenant)
            except PALRuntimeError as exc:
                # Fail-closed: a faulted or aborted session never
                # produces a result at all — the client reports the
                # failure and the unit re-issues elsewhere.
                self.fleet.send_to_server(host, DistFailure(
                    machine_id=host.machine_id, seq=message.seq,
                    unit_id=message.unit_id, reason=type(exc).__name__,
                ))
                continue
            if behavior.kind == "forge":
                state = progress.state
                forged = FactoringState(
                    unit_id=state.unit_id, n=state.n, cursor=state.cursor,
                    end=state.end, found=state.found + (999983,),
                )
                progress = ClientProgress(
                    sealed_key=progress.sealed_key,
                    state_bytes=forged.encode(),
                    mac=progress.mac, done=True,
                )
            if behavior.kind == "flaky" and behavior.delay_ms > 0:
                yield behavior.delay_ms
            self.fleet.send_to_server(host, DistResult(
                machine_id=host.machine_id, seq=message.seq,
                unit_id=message.unit_id, progress=progress,
                session=result, attestation=attestation,
                nonce=message.nonce, tenant=message.tenant,
            ))

    # -- finalization -----------------------------------------------------------

    def _finalize(self) -> None:
        for host in self._hosts:
            record = self.db.client(host.machine_id)
            record.sessions = host.sessions_run()
            record.trusted = self.book.is_trusted(host.machine_id)
        verify_busy = self.fleet.verify_clock.busy_ms
        self.db.finalize(
            makespan_ms=round(self._last_resolved_ms, 6),
            total_sessions=sum(c.sessions for c in self.db.clients.values()),
            verify_count=self._verify_count,
            verify_busy_ms=round(verify_busy, 6),
            max_verify_queue_depth=self._max_verify_backlog,
            fleet_size=len(self.fleet.hosts),
            fleet_seed=self.fleet.seed,
        )


# -- reporting -----------------------------------------------------------------


@dataclass
class DistReport:
    """The final report — a pure function of the job database."""

    fleet_size: int
    total_units: int
    units_validated: int
    units_abandoned: int
    units_unresolved: int
    units_flagged: int
    assignments: int
    resends: int
    timeouts: int
    late: int
    failures: int
    rejected_attestation: int
    rejected_state: int
    makespan_ms: float
    total_sessions: int
    verify_count: int
    verify_busy_ms: float
    max_verify_queue_depth: int
    found: Tuple[int, ...]
    per_client: List[Dict[str, Any]]

    @property
    def resend_rate(self) -> float:
        return self.resends / self.assignments if self.assignments else 0.0

    @property
    def sessions_per_virtual_second(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return self.total_sessions / (self.makespan_ms / 1000.0)

    @property
    def verify_throughput_per_vsec(self) -> float:
        """Verified results per virtual second of *validator* busy time —
        the server's headline capacity number."""
        if self.verify_busy_ms <= 0:
            return 0.0
        return self.verify_count / (self.verify_busy_ms / 1000.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly, byte-deterministic encoding."""
        return {
            "schema": REPORT_SCHEMA,
            "fleet_size": self.fleet_size,
            "total_units": self.total_units,
            "units_validated": self.units_validated,
            "units_abandoned": self.units_abandoned,
            "units_unresolved": self.units_unresolved,
            "units_flagged": self.units_flagged,
            "assignments": self.assignments,
            "resends": self.resends,
            "resend_rate": round(self.resend_rate, 6),
            "timeouts": self.timeouts,
            "late": self.late,
            "failures": self.failures,
            "rejected_attestation": self.rejected_attestation,
            "rejected_state": self.rejected_state,
            "makespan_ms": round(self.makespan_ms, 6),
            "total_sessions": self.total_sessions,
            "sessions_per_virtual_second":
                round(self.sessions_per_virtual_second, 6),
            "verify_count": self.verify_count,
            "verify_busy_ms": round(self.verify_busy_ms, 6),
            "verify_throughput_per_vsec":
                round(self.verify_throughput_per_vsec, 6),
            "max_verify_queue_depth": self.max_verify_queue_depth,
            "found": list(self.found),
            "per_client": self.per_client,
        }


def build_report(db: JobDatabase) -> DistReport:
    """Derive the report from the database alone (live run or replay)."""
    states = {state: 0 for state in
              ("validated", "abandoned", "pending", "issued", "flagged")}
    for unit in db.units.values():
        states[unit.state] = states.get(unit.state, 0) + 1
    rejected = {"attestation": 0, "state": 0}
    timeouts = late = failures = 0
    for record in db.assignments:
        if record.state == "rejected":
            rejected[record.reject_reason] = (
                rejected.get(record.reject_reason, 0) + 1)
        elif record.state == "timed-out":
            timeouts += 1
        elif record.state == "late":
            late += 1
        elif record.state == "failed":
            failures += 1
    found: Set[int] = set()
    for unit in db.units.values():
        if unit.state == "validated":
            found.update(unit.found)
    summary = db.summary
    return DistReport(
        fleet_size=summary.get("fleet_size", len(db.clients)),
        total_units=db.total_units,
        units_validated=states["validated"],
        units_abandoned=states["abandoned"],
        units_unresolved=(db.total_units - states["validated"]
                          - states["abandoned"]),
        units_flagged=sum(1 for u in db.units.values() if u.flags),
        assignments=len(db.assignments),
        resends=sum(u.resends for u in db.units.values()),
        timeouts=timeouts,
        late=late,
        failures=failures,
        rejected_attestation=rejected["attestation"],
        rejected_state=rejected["state"],
        makespan_ms=summary.get("makespan_ms", 0.0),
        total_sessions=summary.get("total_sessions", 0),
        verify_count=summary.get("verify_count", 0),
        verify_busy_ms=summary.get("verify_busy_ms", 0.0),
        max_verify_queue_depth=summary.get("max_verify_queue_depth", 0),
        found=tuple(sorted(found)),
        per_client=[db.clients[c].to_dict() for c in sorted(db.clients)],
    )
