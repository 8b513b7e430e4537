"""The four wall-time workloads of the perf benchmark.

Each workload drives the simulator only through public entry points and
is built from its seed plus fixed sizes (keyword arguments, so the tests
can run tiny configurations).  :meth:`Workload.setup` does what a user
pays once before the first timed op; :meth:`Workload.run_round` does one
round of timed work and checks its own outputs.  A round's work depends
only on the seed and the round's index, never on the rounds before it,
so a timing does not depend on how many rounds a run fits.  The runner
repeats rounds until their time adds up to the run's budget, always
finishing at least one, so a run with a zero budget does exactly one
round.

The workloads were chosen to stress different layers:

* ``fleet-cold`` builds and keys every machine inside the timed phase
  (RSA keygen, kernel construction, PAL identity);
* ``dist-adversarial`` re-runs one job on a memo-warm 32-machine fleet,
  so keygen is bypassed and sealed-state writes, verification, the
  scheduler and the fail-closed paths remain;
* ``vtpm-migrate`` runs the cheapest attested sessions, so per-session
  overhead, per-tenant AIK keygen and the vTPM layer show;
* ``ssh-login`` is a long-lived platform with no scheduler, dominated
  by ``md5crypt`` and unseal, whose event trace grows with every login.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.apps.distributed import FleetProject
from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.core import FlickerFleet, FlickerPlatform
from repro.core.pal import PAL, PALContext
from repro.crypto.sha1 import sha1
from repro.dist import (
    JobSpec,
    QuorumPolicy,
    ReputationPolicy,
    WorkDistributionService,
    parse_behaviors,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec

#: The demonstration composite (3*5*7*11*13 times a prime) both
#: factoring workloads distribute.
FACTOR_N = 15015 * 1_000_003

#: Counters every round reports, whatever the workload; a workload that
#: has no such layer reports 0.  Names ending in ``_max`` aggregate by
#: maximum across rounds, the rest by sum.
COUNTERS = (
    "sim.sched.events",
    "sim.trace.len_max",
    "dist.assignments",
    "dist.resends",
    "dist.rejected_attestation",
    "dist.validated",
)


@dataclass
class RoundResult:
    """One round of timed work and what its checks found."""

    #: Ops attempted: fleet units, dist units, tenant sessions or logins.
    attempted: int
    #: Ops that failed their check (a failed round-level invariant fails
    #: every op of the round).
    failed: int
    #: Flicker sessions the round completed.
    sessions: int
    #: Wall milliseconds of each op the benchmark issued and timed itself.
    latencies_ms: List[float]
    #: The round's deterministic outputs (digested into ``virtual_sha1``).
    virtual: Dict[str, Any]
    #: Per-layer counts read from the layers' own reports (see COUNTERS).
    counters: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: seed, optional op tracker, and the op timer."""

    name = ""
    default_seed = 2008

    def __init__(self, seed: Optional[int] = None, ops=None) -> None:
        self.seed = self.default_seed if seed is None else seed
        #: Receives ``begin_op()`` / ``end_op()`` around every timed op
        #: (the tracer, so spans of one op share an op id), or ``None``.
        self.ops = ops

    def setup(self) -> None:
        """One-time work before the first timed op."""

    def between_rounds(self) -> None:
        """Untimed, untraced work before every round after the first."""

    def run_round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def timed(self, latencies: List[float], fn: Callable, *args):
        """Run one op, appending its wall milliseconds to ``latencies``."""
        if self.ops is not None:
            self.ops.begin_op()
        start = time.perf_counter()
        result = fn(*args)
        latencies.append((time.perf_counter() - start) * 1e3)
        if self.ops is not None:
            self.ops.end_op()
        return result


def _counters(**values: float) -> Dict[str, float]:
    return {**dict.fromkeys(COUNTERS, 0), **values}


def _fleet_counters(fleet, **extra: float) -> Dict[str, float]:
    hosts = list(fleet.materialized_hosts())
    return _counters(**{
        "sim.sched.events": fleet.scheduler.events_executed,
        "sim.trace.len_max": max((len(h.machine.trace) for h in hosts), default=0),
    }, **extra)


class FleetCold(Workload):
    """A fresh, lazily built 10,000-machine fleet per round; ``clients``
    of its machines are built, keyed and run one attested unit each.

    The op is the whole project round: its units run inside the
    scheduler, where the benchmark cannot time them one by one.
    """

    name = "fleet-cold"

    def __init__(self, seed=None, ops=None, fleet_size: int = 10_000,
                 clients: int = 8, units_per_client: int = 1) -> None:
        super().__init__(seed, ops)
        self.fleet_size = fleet_size
        self.clients = clients
        self.units_per_client = units_per_client

    def _project(self, index: int):
        # A new fleet seed per round: every machine is keyed cold, never
        # served by the keygen memo a previous round filled.
        fleet = FlickerFleet(self.fleet_size, seed=self.seed * 1000 + index)
        project = FleetProject(fleet, n=FACTOR_N,
                               units_per_client=self.units_per_client,
                               slice_ms=2000.0, range_per_unit=400,
                               clients=self.clients)
        return fleet, project.run()

    def run_round(self, index: int) -> RoundResult:
        latencies: List[float] = []
        fleet, report = self.timed(latencies, self._project, index)
        expected = self.clients * self.units_per_client
        virtual = report.to_dict()
        # Idle machines' all-zero rows carry no information.
        virtual["per_machine"] = [row for row in virtual["per_machine"]
                                  if row["sessions"]]
        return RoundResult(
            attempted=expected,
            failed=expected - report.units_accepted,
            sessions=report.total_sessions,
            latencies_ms=latencies,
            virtual=virtual,
            counters=_fleet_counters(fleet),
        )


class DistAdversarial(Workload):
    """One quorum job on 32 machines with adversarial clients and
    injected faults, re-run every round on a fresh fleet with the same
    seed.  Set-up runs it once, so the timed rounds find every key in
    the keygen memo: keygen is bypassed, the rest of the job is not.

    The op is the whole job, for the same reason as ``fleet-cold``.
    """

    name = "dist-adversarial"
    #: Machine index -> behavior; the rest are honest.
    BEHAVIORS = "1:lazy,5:dropout,9:forge,13:flaky:90000,21:lazy"
    FORGER = "client-09"
    #: The forger's extra factor (see repro.dist.client).
    FORGED_FACTOR = 999983

    def __init__(self, seed=None, ops=None, machines: int = 32,
                 units: int = 64) -> None:
        super().__init__(seed, ops)
        self.machines = machines
        self.units = units

    def _job(self):
        fleet = FlickerFleet(self.machines, seed=self.seed)
        plan = FaultPlan(seed=self.seed, specs=(
            FaultSpec(kind="tpm-transient", machine="client-03"),
            FaultSpec(kind="slb-bit-flip", magnitude=64, machine="client-17"),
        ))
        for host in fleet.hosts:
            sub = plan.for_machine(host.machine_id)
            if sub.specs:
                FaultInjector(sub).install(host.platform)
        service = WorkDistributionService(
            fleet,
            JobSpec(n=FACTOR_N, total_units=self.units),
            quorum=QuorumPolicy(base_quorum=3, trusted_quorum=1),
            reputation=ReputationPolicy(),
            behaviors=parse_behaviors(self.BEHAVIORS),
        )
        return fleet, service.run()

    def setup(self) -> None:
        self._job()

    def run_round(self, index: int) -> RoundResult:
        latencies: List[float] = []
        fleet, report = self.timed(latencies, self._job)
        clients = {row["client"]: row for row in report.per_client}
        forger = clients.get(self.FORGER, {})
        forger_rejected = (forger.get("rejected", 0) > 0
                           and self.FORGED_FACTOR not in report.found)
        failed = report.total_units - report.units_validated
        if not forger_rejected:
            failed = report.total_units
        return RoundResult(
            attempted=report.total_units,
            failed=failed,
            sessions=report.total_sessions,
            latencies_ms=latencies,
            virtual=report.to_dict(),
            counters=_fleet_counters(
                fleet,
                **{
                    "dist.assignments": report.assignments,
                    "dist.resends": report.resends,
                    "dist.rejected_attestation": report.rejected_attestation,
                    "dist.validated": report.units_validated,
                },
            ),
        )


class TenantPAL(PAL):
    """The cheapest attested session: hash the input into PCR 17."""

    name = "perf-tenant-work"
    modules = ("tpm_utils", "crypto")

    def run(self, ctx: PALContext) -> None:
        digest = ctx.crypto.sha1(ctx.inputs)
        ctx.charge(1.0, "tenant-work")
        ctx.tpm.pcr_extend(digest)
        ctx.write_output(digest)


#: Latency scenarios cycled across tenants.
TENANT_SCENARIOS = ("discrete", "infineon", "mobile")


def _aik_id(public) -> str:
    return sha1(f"{public.n}:{public.e}".encode("ascii")).hex()[:16]


class VTPMMigrate(Workload):
    """``machines`` x ``tenants`` vTPM tenants per round on a fresh
    fleet, each running ``sessions`` attested sessions (interleaved
    across tenants); halfway through, the first tenant of every even
    machine migrates to its odd neighbour.  Each op is one tenant
    session: execute, attest, verify, and bump the tenant's counter.
    """

    name = "vtpm-migrate"

    def __init__(self, seed=None, ops=None, machines: int = 2,
                 tenants: int = 4, sessions: int = 48) -> None:
        super().__init__(seed, ops)
        self.machines = machines
        self.tenants = tenants
        self.sessions = sessions
        self.pal = TenantPAL()

    def _op(self, fleet, host, name: str, counter: int, k: int) -> bool:
        inputs = f"{name}:session:{k}".encode("ascii")
        nonce = sha1(f"perf-vtpm:{name}:{k}".encode("ascii"))
        platform = host.platform
        result = platform.execute_pal(self.pal, inputs=inputs, nonce=nonce,
                                      tenant=name)
        attestation = platform.attest(nonce, result, tenant=name)
        report = fleet.verifier_for(host.machine_id).verify(
            attestation, result.image, nonce, pal_extends=[sha1(inputs)])
        platform.vtpm.tenant(name).increment_counter(counter)
        return report.ok

    def run_round(self, index: int) -> RoundResult:
        fleet = FlickerFleet(self.machines, seed=self.seed * 1000 + index)
        location: Dict[str, Any] = {}
        counters: Dict[str, int] = {}
        for i, host in enumerate(fleet.hosts):
            for j in range(self.tenants):
                name = f"tenant-{i:02d}-{j}"
                scenario = TENANT_SCENARIOS[(i + j) % len(TENANT_SCENARIOS)]
                vt = host.platform.vtpm.create_tenant(name, scenario=scenario)
                counters[name] = vt.create_counter(b"sessions")
                # Provisioning generates the tenant's keys, so every op
                # is a steady-state session (key streams are per key, so
                # when they are generated changes no output).
                vt.ek_public, vt.aik_public  # noqa: B018 — forces keygen
                location[name] = host
        names = sorted(location)
        latencies: List[float] = []
        verified = dict.fromkeys(names, 0)

        def sessions(first: int, last: int) -> None:
            for k in range(first, last):
                for name in names:
                    host = location[name]
                    if self.timed(latencies, self._op, fleet, host, name,
                                  counters[name], k):
                        verified[name] += 1

        half = self.sessions // 2
        sessions(0, half)
        aik_before = {}
        for i in range(0, self.machines - 1, 2):
            name = f"tenant-{i:02d}-0"
            source, destination = fleet.hosts[i], fleet.hosts[i + 1]
            aik_before[name] = _aik_id(source.platform.vtpm.tenant(name).aik_public)
            fleet.migrate_tenant(source.machine_id, destination.machine_id, name)
            location[name] = destination
        sessions(half, self.sessions)

        rows = []
        for name in names:
            vt = location[name].platform.vtpm.tenant(name)
            rows.append({
                "tenant": name,
                "machine": location[name].machine_id,
                "migrated": name in aik_before,
                "verified": verified[name],
                "aik": _aik_id(vt.aik_public),
                "pcr17": vt.pcrs.read(17).hex(),
                "counter": vt.read_counter(counters[name]),
            })
        aiks = [row["aik"] for row in rows]
        identity_kept = (len(set(aiks)) == len(aiks)
                         and all(row["aik"] == aik_before[row["tenant"]]
                                 for row in rows if row["migrated"]))
        attempted = len(names) * self.sessions
        failed = attempted - sum(verified.values())
        if not identity_kept:
            failed = attempted
        return RoundResult(
            attempted=attempted,
            failed=failed,
            sessions=attempted,
            latencies_ms=latencies,
            virtual={"tenants": rows},
            counters=_fleet_counters(fleet),
        )


class SSHLogin(Workload):
    """A round is one platform's lifetime: a long-lived platform serves
    ``clients`` closed-loop SSH clients that reuse their cached channel,
    for ``logins`` logins per client, taking turns; each login is one op.

    Starting a platform (enrolling the users and running each client's
    channel-setup login) is the set-up of the first round and untimed
    work before every later one.  Every login scans the platform's event
    trace, which only grows, so a platform serving every round would make
    each round dearer than the last, and a faster program, fitting more
    rounds, would slow its own later rounds.  With a platform per round,
    every round does the same work from the same state.
    """

    name = "ssh-login"
    default_seed = 999

    def __init__(self, seed=None, ops=None, clients: int = 8,
                 logins: int = 8) -> None:
        super().__init__(seed, ops)
        self.clients = clients
        self.logins = logins

    def between_rounds(self) -> None:
        self.setup()

    def setup(self) -> None:
        self.platform = FlickerPlatform(seed=self.seed)
        self.server = SSHServer(self.platform)
        self.users = []
        for i in range(self.clients):
            username = f"user{i}"
            password = f"pw-{self.seed}-{i}".encode("ascii")
            salt = b"%08x" % ((self.seed * 31 + i) & 0xFFFFFFFF)
            self.server.add_user(PasswdEntry.create(username, password, salt))
            self.users.append((username, password))
        self.sshs = [SSHClient(self.platform, reuse_channel=True)
                     for _ in range(self.clients)]
        for client, (username, password) in zip(self.sshs, self.users):
            if not client.connect_and_login(self.server, username,
                                            password).authenticated:
                raise RuntimeError(f"channel-setup login for {username} failed")

    def run_round(self, index: int) -> RoundResult:
        latencies: List[float] = []
        rows = []
        for _ in range(self.logins):
            for client, (username, password) in zip(self.sshs, self.users):
                outcome = self.timed(latencies, client.connect_and_login,
                                     self.server, username, password)
                rows.append([username, outcome.authenticated,
                             round(outcome.time_to_prompt_ms, 6),
                             round(outcome.time_after_entry_ms, 6)])
        return RoundResult(
            attempted=len(rows),
            failed=sum(1 for row in rows if not row[1]),
            sessions=len(rows),
            latencies_ms=latencies,
            virtual={"logins": rows},
            counters=_counters(**{
                "sim.trace.len_max": len(self.platform.machine.trace)}),
        )


#: Workload name -> class, in the order a full run measures them.
WORKLOADS = {cls.name: cls for cls in (FleetCold, DistAdversarial,
                                       VTPMMigrate, SSHLogin)}
