"""Distributed computing with integrity-protected state (paper §6.2).

A BOINC-style project distributes work units to untrusted hosts.  The
classic defence against cheating clients is k-way replication — wasteful
and still probabilistic.  With Flicker, the client computes inside
sessions whose multi-session state is integrity-protected: the first
invocation generates a 160-bit HMAC key from TPM randomness and seals it
to itself; every later invocation unseals the key, checks the MAC on the
incoming state, works for a bounded slice (so the OS gets the machine
back between slices), and MACs the outgoing state.  The final slice
extends the result into PCR 17 so the server can verify an attestation
instead of replicating.

The demonstration workload is the paper's: naive trial-division factoring
of a large number, split into divisor ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.attestation import Attestation
from repro.core.fleet import FlickerFleet, MachineReport
from repro.core.pal import PAL, PALContext
from repro.core.session import FlickerPlatform, SessionResult
from repro.crypto.hmac import constant_time_equal
from repro.errors import PALRuntimeError
from repro.sim.parallel import merge_totals, rate, split_machines
from repro.tpm.structures import SealedBlob

#: Commands in the PAL input framing.
_CMD_INIT = 0
_CMD_WORK = 1

#: The modelled per-divisor cost: §7.5's workload tests 1,500,000 divisors
#: per multi-second session, so one divisor costs a fraction of a
#: microsecond; we model 0.0005 ms per 1000 divisors at full rate and let
#: callers specify the slice duration directly instead.
DIVISORS_PER_MS = 1500.0 / 8.3  # ≈181 divisors per ms (from §7.5's figures)


@dataclass
class FactoringWorkUnit:
    """One server-issued unit: test divisors of ``n`` in [start, end)."""

    unit_id: int
    n: int
    start: int
    end: int


@dataclass
class FactoringState:
    """The PAL's inter-session state for one work unit."""

    unit_id: int
    n: int
    cursor: int
    end: int
    found: Tuple[int, ...] = ()

    def encode(self) -> bytes:
        payload = (
            self.unit_id.to_bytes(4, "big")
            + self.n.to_bytes(32, "big")
            + self.cursor.to_bytes(16, "big")
            + self.end.to_bytes(16, "big")
            + len(self.found).to_bytes(2, "big")
        )
        for divisor in self.found:
            payload += divisor.to_bytes(16, "big")
        return payload

    @classmethod
    def decode(cls, data: bytes) -> "FactoringState":
        unit_id = int.from_bytes(data[:4], "big")
        n = int.from_bytes(data[4:36], "big")
        cursor = int.from_bytes(data[36:52], "big")
        end = int.from_bytes(data[52:68], "big")
        count = int.from_bytes(data[68:70], "big")
        found = []
        off = 70
        for _ in range(count):
            found.append(int.from_bytes(data[off : off + 16], "big"))
            off += 16
        return cls(unit_id=unit_id, n=n, cursor=cursor, end=end, found=tuple(found))

    @property
    def done(self) -> bool:
        """Whether the whole divisor range has been covered."""
        return self.cursor >= self.end


def _encode_init(state: FactoringState) -> bytes:
    return bytes([_CMD_INIT]) + state.encode()


def _encode_work(sealed_key: SealedBlob, state: bytes, mac: bytes, slice_ms: float) -> bytes:
    key_blob = sealed_key.encode()
    return (
        bytes([_CMD_WORK])
        + int(slice_ms * 1000).to_bytes(8, "big")
        + len(key_blob).to_bytes(4, "big") + key_blob
        + len(state).to_bytes(4, "big") + state
        + mac
    )


class DistributedPAL(PAL):
    """The Flicker-protected BOINC computation core."""

    name = "boinc-factoring"
    modules = ("tpm_utils", "crypto")

    def run(self, ctx: PALContext) -> None:
        if not ctx.inputs:
            raise PALRuntimeError("distributed PAL requires a command input")
        command = ctx.inputs[0]
        if command == _CMD_INIT:
            self._run_init(ctx)
        elif command == _CMD_WORK:
            self._run_work(ctx)
        else:
            raise PALRuntimeError(f"unknown distributed-PAL command {command}")

    # -- first invocation: key generation (§6.2) --------------------------------

    def _run_init(self, ctx: PALContext) -> None:
        state = FactoringState.decode(ctx.inputs[1:])
        hmac_key = ctx.tpm.get_random(20)  # the 160-bit symmetric key
        sealed = ctx.tpm.seal_to_pal(hmac_key, ctx.self_pcr17)
        state_bytes = state.encode()
        mac = ctx.crypto.hmac_sha1(hmac_key, state_bytes)
        sealed_blob = sealed.encode()
        ctx.write_output(
            len(sealed_blob).to_bytes(4, "big") + sealed_blob
            + len(state_bytes).to_bytes(4, "big") + state_bytes
            + mac
        )

    # -- subsequent invocations: verified work slices --------------------------------

    def _run_work(self, ctx: PALContext) -> None:
        payload = ctx.inputs[1:]
        slice_ms = int.from_bytes(payload[:8], "big") / 1000.0
        off = 8
        key_len = int.from_bytes(payload[off : off + 4], "big")
        sealed = SealedBlob.decode(payload[off + 4 : off + 4 + key_len])
        off += 4 + key_len
        state_len = int.from_bytes(payload[off : off + 4], "big")
        state_bytes = payload[off + 4 : off + 4 + state_len]
        off += 4 + state_len
        mac = payload[off : off + 20]

        hmac_key = ctx.tpm.unseal(sealed)
        if not constant_time_equal(ctx.crypto.hmac_sha1(hmac_key, state_bytes), mac):
            raise PALRuntimeError("state MAC verification failed (tampered state)")

        state = FactoringState.decode(state_bytes)
        divisor_budget = max(1, int(slice_ms * DIVISORS_PER_MS))
        state = self._factor_slice(state, divisor_budget)
        ctx.charge(slice_ms, "factoring-work")

        new_state = state.encode()
        new_mac = ctx.crypto.hmac_sha1(hmac_key, new_state)
        if state.done:
            # Final slice: bind the result into PCR 17 for attestation.
            result_digest = ctx.crypto.sha1(new_state)
            ctx.tpm.pcr_extend(result_digest)
        ctx.write_output(
            len(new_state).to_bytes(4, "big") + new_state + new_mac
            + (b"\x01" if state.done else b"\x00")
        )

    @staticmethod
    def _factor_slice(state: FactoringState, divisor_budget: int) -> FactoringState:
        """Test up to ``divisor_budget`` candidate divisors (functionally
        exact; the *time* is charged by the caller from the slice length)."""
        cursor = max(state.cursor, 2)
        end = min(state.end, cursor + divisor_budget)
        found = list(state.found)
        # No divisor larger than n can divide n, so that region of the
        # range is covered without per-candidate work.
        trial_end = min(end, state.n + 1)
        while cursor < trial_end:
            if state.n % cursor == 0 and cursor not in found:
                found.append(cursor)
            cursor += 1
        cursor = max(cursor, end) if end > state.n else cursor
        return FactoringState(
            unit_id=state.unit_id,
            n=state.n,
            cursor=cursor,
            end=state.end,
            found=tuple(found),
        )


@dataclass
class ClientProgress:
    """A client's bookkeeping between sessions (held by untrusted code)."""

    sealed_key: SealedBlob
    state_bytes: bytes
    mac: bytes
    done: bool = False

    @property
    def state(self) -> FactoringState:
        """Decoded view of the (MAC-protected) state."""
        return FactoringState.decode(self.state_bytes)


class BOINCClient:
    """The modified BOINC client: runs work units inside Flicker sessions."""

    def __init__(self, platform: FlickerPlatform, pal: Optional[DistributedPAL] = None) -> None:
        self.platform = platform
        self.pal = pal or DistributedPAL()

    def start_unit(self, unit: FactoringWorkUnit,
                   tenant: Optional[str] = None) -> ClientProgress:
        """First invocation: key generation + sealed state bootstrap.

        Pass ``tenant`` to run the session on behalf of a vTPM tenant
        (multi-tenant hosts; see :mod:`repro.vtpm`)."""
        state = FactoringState(
            unit_id=unit.unit_id, n=unit.n, cursor=unit.start, end=unit.end
        )
        result = self.platform.execute_pal(self.pal, inputs=_encode_init(state),
                                           tenant=tenant)
        return self._parse_init_output(result)

    @staticmethod
    def _parse_init_output(result: SessionResult) -> ClientProgress:
        data = result.outputs
        key_len = int.from_bytes(data[:4], "big")
        sealed = SealedBlob.decode(data[4 : 4 + key_len])
        off = 4 + key_len
        state_len = int.from_bytes(data[off : off + 4], "big")
        state_bytes = data[off + 4 : off + 4 + state_len]
        mac = data[off + 4 + state_len : off + 4 + state_len + 20]
        return ClientProgress(sealed_key=sealed, state_bytes=state_bytes, mac=mac)

    def work_slice(
        self,
        progress: ClientProgress,
        slice_ms: float,
        nonce: bytes = b"\x00" * 20,
        tenant: Optional[str] = None,
    ) -> Tuple[ClientProgress, SessionResult]:
        """One bounded Flicker session of application work."""
        inputs = _encode_work(progress.sealed_key, progress.state_bytes, progress.mac, slice_ms)
        result = self.platform.execute_pal(self.pal, inputs=inputs, nonce=nonce,
                                           tenant=tenant)
        data = result.outputs
        state_len = int.from_bytes(data[:4], "big")
        state_bytes = data[4 : 4 + state_len]
        mac = data[4 + state_len : 24 + state_len]
        done = data[24 + state_len : 25 + state_len] == b"\x01"
        return (
            ClientProgress(
                sealed_key=progress.sealed_key,
                state_bytes=state_bytes,
                mac=mac,
                done=done,
            ),
            result,
        )

    def run_unit(
        self,
        unit: FactoringWorkUnit,
        slice_ms: float,
    ) -> Tuple[ClientProgress, SessionResult]:
        """Run a unit to completion in ``slice_ms`` chunks; returns the
        final progress and the *last* session result (whose PCR-17 chain
        contains the result extend)."""
        progress = self.start_unit(unit)
        last_result: Optional[SessionResult] = None
        while not progress.done:
            progress, last_result = self.work_slice(progress, slice_ms)
        assert last_result is not None
        return progress, last_result


class BOINCServer:
    """The project server: issues units, verifies attested results."""

    def __init__(self, n: int, range_per_unit: int = 2000) -> None:
        self.n = n
        self.range_per_unit = range_per_unit
        self._next_unit = 0
        self.verified_results: Dict[int, Tuple[int, ...]] = {}

    def issue_unit(self) -> FactoringWorkUnit:
        """Hand out the next divisor range."""
        start = 2 + self._next_unit * self.range_per_unit
        unit = FactoringWorkUnit(
            unit_id=self._next_unit,
            n=self.n,
            start=start,
            end=start + self.range_per_unit,
        )
        self._next_unit += 1
        return unit

    def accept_result(
        self,
        platform: FlickerPlatform,
        unit: FactoringWorkUnit,
        progress: ClientProgress,
        final_session: SessionResult,
        attestation: Attestation,
        nonce: bytes,
        verifier=None,
    ) -> bool:
        """Verify an attested result; store it if sound.

        The expected PCR-17 chain includes the PAL's final result extend
        (H(final state)), so a forged state cannot verify.  Pass
        ``verifier`` to reuse a held verifier (e.g. a fleet server's
        per-client registry) instead of deriving one from the platform.
        """
        from repro.crypto.sha1 import sha1

        if verifier is None:
            verifier = platform.verifier()
        report = verifier.verify(
            attestation,
            final_session.image,
            nonce,
            pal_extends=[sha1(progress.state_bytes)],
        )
        if not report.ok:
            return False
        state = progress.state
        if state.unit_id != unit.unit_id or not state.done:
            return False
        self.verified_results[unit.unit_id] = state.found
        return True


# ---------------------------------------------------------------------------
# The replication baseline (Figure 8)
# ---------------------------------------------------------------------------

@dataclass
class ReplicationScheme:
    """k-way redundant execution on untrusted clients."""

    replicas: int

    @property
    def efficiency(self) -> float:
        """Useful work fraction: one unit of progress per ``k`` executions."""
        return 1.0 / self.replicas

    def majority_result(self, results: List[Tuple[int, ...]]) -> Optional[Tuple[int, ...]]:
        """The result reported by a strict majority, or ``None``."""
        tally: Dict[Tuple[int, ...], int] = {}
        for result in results:
            tally[result] = tally.get(result, 0) + 1
        best, votes = max(tally.items(), key=lambda item: item[1])
        return best if votes * 2 > len(results) else None


# ---------------------------------------------------------------------------
# The fleet deployment: many untrusted hosts, one verifying server (§6.2/§7.5)
# ---------------------------------------------------------------------------

#: Server-side cost of verifying one attested result: the quote signature
#: and the AIK certificate are each one RSA public-key operation; the
#: event-log replay is a handful of SHA-1s, charged as one more op's worth.
VERIFY_PUBLIC_OPS = 3


@dataclass(frozen=True)
class StopWork:
    """Server → client message: no more units; the client process exits."""


@dataclass
class FleetMachineOutcome(MachineReport):
    """One machine's contribution to a fleet project run: its fleet
    activity row plus the project's outcome on it."""

    units_accepted: int = 0
    units_rejected: int = 0
    useful_ms: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "machine_id": self.machine_id,
            "units_accepted": self.units_accepted,
            "units_rejected": self.units_rejected,
            "sessions": self.sessions,
            "busy_ms": round(self.busy_ms, 6),
            "idle_ms": round(self.idle_ms, 6),
            "utilization": round(self.utilization, 6),
            "useful_ms": round(self.useful_ms, 6),
            "net_bytes": self.net_bytes,
            "net_messages": self.net_messages,
        }


@dataclass
class FleetProjectReport:
    """Outcome of one concurrent fleet run (the Figure 8 deployment)."""

    fleet_size: int
    units_issued: int
    units_accepted: int
    units_rejected: int
    #: Global virtual time from start to last verified result (ms).
    makespan_ms: float
    #: Flicker sessions across all client machines.
    total_sessions: int
    #: Virtual compute across the fleet (sum of per-machine busy time).
    total_busy_ms: float
    #: Application-work share of that time.
    useful_ms: float
    #: Payload bytes carried by all links, both directions.
    network_bytes: int
    network_messages: int
    per_machine: List[FleetMachineOutcome] = field(default_factory=list)

    @property
    def efficiency(self) -> float:
        """Useful-work fraction across the fleet (Figure 8's metric)."""
        return self.useful_ms / self.total_busy_ms if self.total_busy_ms else 0.0

    @property
    def sessions_per_virtual_second(self) -> float:
        """Aggregate session throughput in *virtual* time — the fleet's
        scaling figure of merit: N concurrent machines complete ~N times
        the sessions of one machine in the same virtual interval."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.total_sessions / (self.makespan_ms / 1000.0)

    def to_dict(self) -> Dict:
        """JSON-friendly, byte-deterministic encoding."""
        return {
            "fleet_size": self.fleet_size,
            "units_issued": self.units_issued,
            "units_accepted": self.units_accepted,
            "units_rejected": self.units_rejected,
            "makespan_ms": round(self.makespan_ms, 6),
            "total_sessions": self.total_sessions,
            "total_busy_ms": round(self.total_busy_ms, 6),
            "useful_ms": round(self.useful_ms, 6),
            "efficiency": round(self.efficiency, 6),
            "sessions_per_virtual_second": round(self.sessions_per_virtual_second, 6),
            "network_bytes": self.network_bytes,
            "network_messages": self.network_messages,
            "per_machine": [m.to_dict() for m in self.per_machine],
        }


class FleetProject:
    """§6.2's distributed project run *concurrently* on a fleet.

    The project is the k=1 configuration of the work-distribution
    service (:class:`~repro.dist.service.WorkDistributionService`): one
    attested result accepts a unit (so reputation never changes a vote
    target), the clients are honest, and no deadline can fire.  Every
    client computes inside its own Flicker sessions, interleaved in
    virtual time with the others, and the validator verifies each
    attestation as it arrives.  A session that fails closed is reported
    and its unit re-issued to another client.

    Usage::

        fleet = FlickerFleet(num_machines=4, seed=2008)
        project = FleetProject(fleet, n=15015 * 1_000_003,
                               units_per_client=2, slice_ms=2000.0)
        report = project.run()

    Same fleet seed and shape → byte-identical
    :meth:`FleetProjectReport.to_dict` output.
    """

    def __init__(
        self,
        fleet,
        n: int,
        units_per_client: int = 1,
        slice_ms: float = 2000.0,
        range_per_unit: int = 400,
        clients: Optional[int] = None,
    ) -> None:
        if clients is not None and not 0 <= clients <= len(fleet.hosts):
            raise ValueError("clients must be between 0 and the fleet size")
        self.fleet = fleet
        self.n = n
        self.units_per_client = units_per_client
        self.slice_ms = slice_ms
        self.range_per_unit = range_per_unit
        #: How many client machines participate: the first ``clients``
        #: hosts (default: the whole fleet).  A sparse workload on a
        #: lazily materialized fleet only ever constructs the
        #: participants — the idle majority of a 10k fleet stays unbuilt.
        self.clients = len(fleet.hosts) if clients is None else clients

    def run(self) -> FleetProjectReport:
        """Run the project on the distribution service and report."""
        from repro.dist import JobSpec, QuorumPolicy, WorkDistributionService

        units = self.clients * self.units_per_client
        if not units:
            # Nothing to distribute (a sharded group with no active
            # clients): every machine's row is zero.
            return self._build_report(units, {}, 0.0)
        service = WorkDistributionService(
            self.fleet,
            JobSpec(n=self.n, total_units=units,
                    range_per_unit=self.range_per_unit,
                    slice_ms=self.slice_ms, timeout_ms=math.inf),
            quorum=QuorumPolicy(base_quorum=1, trusted_quorum=1),
            clients=self.clients,
        )
        report = service.run()
        return self._build_report(units, service.db.clients,
                                  report.makespan_ms)

    def _build_report(self, units: int, records: Dict,
                      makespan_ms: float) -> FleetProjectReport:
        useful = {host.machine_id: _useful_ms(host)
                  for host in self.fleet.materialized_hosts()}
        per_machine: List[FleetMachineOutcome] = []
        # The last machine_reports row is the server aggregate; the rest
        # are the clients, in index order.  Machines that never ran (and,
        # on a lazy fleet, were never built) have all-zero rows.
        for stats in self.fleet.machine_reports()[:-1]:
            record = records.get(stats.machine_id)
            per_machine.append(FleetMachineOutcome(
                **vars(stats),
                units_accepted=record.valid if record else 0,
                units_rejected=record.rejected if record else 0,
                useful_ms=useful.get(stats.machine_id, 0.0),
            ))
        return FleetProjectReport(
            fleet_size=len(self.fleet.hosts),
            units_issued=units,
            units_accepted=sum(m.units_accepted for m in per_machine),
            units_rejected=sum(m.units_rejected for m in per_machine),
            makespan_ms=makespan_ms,
            total_sessions=sum(m.sessions for m in per_machine),
            total_busy_ms=sum(m.busy_ms for m in per_machine),
            useful_ms=sum(m.useful_ms for m in per_machine),
            network_bytes=sum(m.net_bytes for m in per_machine),
            network_messages=sum(m.net_messages for m in per_machine),
            per_machine=per_machine,
        )


def _useful_ms(host) -> float:
    """Virtual time ``host`` spent on factoring work."""
    return sum(
        e.detail["ms"]
        for e in host.machine.trace.events(source="cpu", kind="work")
        if e.detail.get("label") == "factoring-work"
    )


# -- fleet sweeps (cells for repro.sim.parallel.run_sharded) --------------------

#: The demonstration composite: 3*5*7*11*13 times a prime.
DEFAULT_N = 15015 * 1_000_003


def run_fleet(
    machines: int = 4,
    units_per_client: int = 2,
    slice_ms: float = 2000.0,
    range_per_unit: int = 400,
    seed: int = 2008,
    jitter_ms: float = 0.0,
    observability: bool = False,
    index_base: int = 0,
    clients: Optional[int] = None,
):
    """Build the fleet, run the project; returns ``(fleet, report)``.

    ``index_base`` numbers this fleet's machines globally (a sharded
    sweep runs each machine group as its own fleet); ``clients`` limits
    participation to the first N machines of a lazily built fleet.
    """
    fleet = FlickerFleet(num_machines=machines, seed=seed,
                         jitter_ms=jitter_ms, observability=observability,
                         index_base=index_base)
    project = FleetProject(fleet, n=DEFAULT_N, units_per_client=units_per_client,
                           slice_ms=slice_ms, range_per_unit=range_per_unit,
                           clients=clients)
    return fleet, project.run()


def fleet_cell(config: dict) -> dict:
    """One fleet run (keyword ``config`` for :func:`run_fleet`) as a
    sweep cell: returns the report as a plain dict."""
    return run_fleet(**config)[1].to_dict()


def split_fleet_group(config: dict, base: int, count: int) -> dict:
    """A machine group of a fleet config.  Participation is global ("the
    first ``clients`` machines"), so the group gets its overlap with
    ``[0, clients)`` — possibly none."""
    cell = split_machines(config, base, count)
    if config.get("clients") is not None:
        cell["clients"] = max(0, min(config["clients"], base + count) - base)
    return cell


def merge_fleet_reports(groups: List[dict]) -> dict:
    """Merge the group report dicts of one sharded fleet run: counters
    and times sum, the makespan is the slowest group's, ``per_machine``
    concatenates in machine order, and the two rates are recomputed
    from the merged totals — exact, not an average of averages."""
    merged = merge_totals(
        groups,
        sums=("fleet_size", "units_issued", "units_accepted",
              "units_rejected", "total_sessions", "total_busy_ms",
              "useful_ms", "network_bytes", "network_messages"),
        maxes=("makespan_ms",),
        concat=("per_machine",),
    )
    merged["efficiency"] = rate(merged["useful_ms"], merged["total_busy_ms"])
    merged["sessions_per_virtual_second"] = rate(
        merged["total_sessions"], merged["makespan_ms"], per=1000.0)
    return merged


def flicker_efficiency(user_latency_ms: float, overhead_ms: float) -> float:
    """Figure 8's Flicker curve: with a per-session overhead of
    ``overhead_ms`` (SKINIT + Unseal + …), a session the user perceives as
    ``user_latency_ms`` long spends the remainder on useful work."""
    if user_latency_ms <= 0:
        return 0.0
    return max(0.0, (user_latency_ms - overhead_ms) / user_latency_ms)
