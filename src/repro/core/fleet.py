"""Multi-machine Flicker deployments on one discrete-event schedule.

A :class:`FlickerFleet` assembles N independent
:class:`~repro.core.session.FlickerPlatform` machines — each with its own
TPM, AIK, Privacy CA, and per-machine :class:`~repro.sim.sched.ScheduledClock`
— plus one verifier/server host, all registered with a shared
:class:`~repro.sim.sched.EventScheduler`.  This is the deployment shape
the paper's §6.2/§7.5 distributed-computing application envisions: many
untrusted client machines compute inside Flicker sessions while a server
verifies attestations as they arrive over the network.

Concurrency model
-----------------
Machine-local work (a Flicker session, a TPM command burst) runs
synchronously on that machine's clock, exactly as in the single-machine
simulation — which is why one-machine fleet runs reproduce the legacy
Figure 2 timings bit-for-bit.  Machines interleave at *scheduling
points*: network deliveries, mailbox waits, and explicit yields inside
:class:`~repro.sim.sched.Process` generators.  All interleaving is
resolved by the scheduler's ``(time, seq)`` order, so a seeded fleet
scenario replays byte-identically.

Networking
----------
Each client has its own :class:`~repro.osim.network.NetworkLink` to the
server with the profile's one-way latency, optional seeded jitter, and
in-order delivery.  Messages land in :class:`~repro.sim.sched.Mailbox`\\ es
that wake the receiving process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Sequence

from repro.core.attestation import FlickerVerifier
from repro.core.session import FlickerPlatform
from repro.osim.network import NetworkLink
from repro.sim.rng import DeterministicRNG
from repro.sim.sched import EventScheduler, Mailbox, Process, ScheduledClock
from repro.sim.timing import DEFAULT_PROFILE, TimingProfile

#: The server/verifier host's machine id.
SERVER_ID = "server"

#: The server's verification worker.  Attestation checks run on this
#: clock so a slow verify never stalls the dispatch loop (the server
#: host models two cores: one dispatching, one verifying).
VERIFIER_ID = "server-verify"


def derive_machine_seed(fleet_seed: int, index: int) -> int:
    """Deterministic per-machine platform seed (stable in ``index``:
    growing the fleet never reseeds existing machines)."""
    return DeterministicRNG(fleet_seed).fork(f"machine:{index}").randbits(48)


def derive_group_seed(fleet_seed: int, index_base: int) -> int:
    """Deterministic scheduler seed for a sharded machine group.

    Group 0 keeps the fleet seed itself, so an unsharded fleet — every
    committed baseline — is bit-for-bit unchanged; later groups get an
    independent stream for their network jitter and scheduling noise.
    """
    if index_base == 0:
        return fleet_seed
    return DeterministicRNG(fleet_seed).fork(f"group:{index_base}").randbits(48)


class _LazyHostSequence(Sequence):
    """``fleet.hosts``: a list-like view over lazily materialized hosts.

    ``len`` covers the whole fleet; indexing (or iterating, or zipping)
    materializes the touched machines from the fleet's platform template.
    Code that only touches a subset — a sparse workload on a 10k fleet —
    never pays for the idle machines.
    """

    def __init__(self, fleet: "FlickerFleet") -> None:
        self._fleet = fleet

    def __len__(self) -> int:
        return self._fleet.num_machines

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._fleet._materialize(i)
                    for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("fleet host index out of range")
        return self._fleet._materialize(index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<fleet hosts: {self._fleet.materialized_count}"
                f"/{len(self)} materialized>")


@dataclass
class FleetHost:
    """One client machine: platform + clock + link + inbound mailbox."""

    machine_id: str
    platform: FlickerPlatform
    clock: ScheduledClock
    link: NetworkLink
    mailbox: Mailbox

    @property
    def machine(self):
        """The underlying simulated machine."""
        return self.platform.machine

    def sessions_run(self) -> int:
        """Flicker sessions this machine has executed (SKINIT count)."""
        return len(self.machine.trace.events(source="cpu", kind="skinit"))


@dataclass
class MachineReport:
    """Per-machine activity summary for one fleet run."""

    machine_id: str
    sessions: int
    busy_ms: float
    idle_ms: float
    utilization: float
    net_messages: int
    net_bytes: int


class FlickerFleet:
    """N Flicker client machines plus one verifier/server host.

    One fleet run is a single discrete-event schedule and therefore runs
    on one core; *sweeps* over fleet shapes or seeds shard across worker
    processes via :func:`repro.sim.parallel.run_sharded`, with merged
    reports byte-identical to a serial sweep.
    """

    def __init__(
        self,
        num_machines: int,
        seed: int = 2008,
        profile: TimingProfile = DEFAULT_PROFILE,
        jitter_ms: float = 0.0,
        observability: bool = False,
        functional_rsa_bits: int = 512,
        tpm_key_bits: int = 512,
        index_base: int = 0,
    ) -> None:
        if num_machines < 1:
            raise ValueError("a fleet needs at least one machine")
        if index_base < 0:
            raise ValueError("index_base must be non-negative")
        self.seed = seed
        self.profile = profile
        self.observability = observability
        self.num_machines = num_machines
        #: Global index of this fleet's first machine.  A sharded sweep
        #: (:func:`repro.sim.parallel.shard_groups`) runs machine group
        #: ``g`` as its own fleet with ``index_base = g * shard_size``;
        #: machine ids and derived seeds use global indices, so the
        #: union of the groups covers the same machines as one flat
        #: fleet of ``shards * shard_size``.
        self.index_base = index_base
        self.jitter_ms = jitter_ms
        self.scheduler = EventScheduler(seed=derive_group_seed(seed, index_base))
        #: The verifier/server host's clock (it does no Flicker sessions,
        #: but verification work and dispatch decisions charge time here).
        self.server_clock = ScheduledClock(self.scheduler, machine_id=SERVER_ID)
        self.server_mailbox = Mailbox(self.scheduler, name=SERVER_ID)
        #: The verification worker's clock + inbound queue: attestation
        #: checks charge time here, in parallel with dispatch decisions
        #: on :attr:`server_clock` (see :meth:`spawn_verifier`).
        self.verify_clock = ScheduledClock(self.scheduler, machine_id=VERIFIER_ID)
        self.verify_mailbox = Mailbox(self.scheduler, name=VERIFIER_ID)
        self.server_hub = None
        self.verify_hub = None
        if observability:
            from repro.obs import ObservabilityHub

            self.server_hub = ObservabilityHub(self.server_clock, machine=SERVER_ID)
            self.server_clock.set_span_listener(self.server_hub)
            self.verify_hub = ObservabilityHub(self.verify_clock, machine=VERIFIER_ID)
            self.verify_clock.set_span_listener(self.verify_hub)
        #: The shared platform template all machines clone from.
        self.template = FlickerPlatform.template(
            profile=profile,
            seed=seed,
            functional_rsa_bits=functional_rsa_bits,
            tpm_key_bits=tpm_key_bits,
            observability=observability,
        )
        self._slots: List[Optional[FleetHost]] = [None] * num_machines
        self._host_index: Dict[str, int] = {
            self.machine_id_at(i): i for i in range(num_machines)
        }
        self.hosts: Sequence[FleetHost] = _LazyHostSequence(self)
        self._verifiers: Dict[str, FlickerVerifier] = {}

    # -- lookup ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_machines

    def machine_id_at(self, index: int) -> str:
        """Machine id of the host at local ``index`` (global numbering:
        a sharded group continues where the previous group stopped)."""
        return f"client-{self.index_base + index:02d}"

    @property
    def materialized_count(self) -> int:
        """How many machines have actually been constructed so far."""
        return sum(1 for slot in self._slots if slot is not None)

    def materialized_hosts(self) -> Iterator[FleetHost]:
        """The hosts constructed so far, in index order."""
        return (slot for slot in self._slots if slot is not None)

    def _materialize(self, index: int) -> FleetHost:
        """Construct (or return) the host at ``index``.

        Construction order does not affect byte-identity: each platform
        seeds its own RNG tree, ``scheduler.rng(label)`` is stateless per
        label, and the scheduler's clock registry carries no ordering.
        """
        host = self._slots[index]
        if host is not None:
            return host
        machine_id = self.machine_id_at(index)
        clock = ScheduledClock(self.scheduler, machine_id=machine_id)
        platform = self.template.clone(
            seed=derive_machine_seed(self.seed, self.index_base + index),
            machine_id=machine_id, clock=clock)
        link = NetworkLink(
            clock,
            platform.machine.trace,
            one_way_ms=self.profile.host.network_one_way_ms,
            hops=self.profile.host.network_hops,
            scheduler=self.scheduler,
            jitter_ms=self.jitter_ms,
            rng=self.scheduler.rng(f"net:{machine_id}"),
            name=f"{machine_id}<->{SERVER_ID}",
        )
        host = FleetHost(
            machine_id=machine_id,
            platform=platform,
            clock=clock,
            link=link,
            mailbox=Mailbox(self.scheduler, name=machine_id),
        )
        self._slots[index] = host
        return host

    def host(self, machine_id: str) -> FleetHost:
        """The client host with the given machine id (O(1) lookup)."""
        try:
            index = self._host_index[machine_id]
        except KeyError:
            raise KeyError(f"no fleet machine {machine_id!r}") from None
        return self._materialize(index)

    def verifier_for(self, machine_id: str) -> FlickerVerifier:
        """The server's verifier trusting ``machine_id``'s Privacy CA.

        Each machine carries its own TPM/AIK certified by its own Privacy
        CA; the server-side verifier registry models the CA public keys a
        real project server would hold for its enrolled clients.
        """
        if machine_id not in self._verifiers:
            self._verifiers[machine_id] = self.host(machine_id).platform.verifier()
        return self._verifiers[machine_id]

    def migrate_tenant(self, source_id: str, destination_id: str,
                       name: str) -> None:
        """Move a vTPM tenant between two fleet machines mid-run.

        Export on the source, evict, import on the destination
        (:func:`repro.vtpm.mux.migrate_tenant`) — the tenant's next
        session and attestation happen on the destination's hardware
        with the same virtual state and key identity.
        """
        from repro.vtpm.mux import migrate_tenant

        migrate_tenant(self.host(source_id).platform,
                       self.host(destination_id).platform, name)

    # -- processes -------------------------------------------------------------

    def spawn_server(self, generator: Generator, name: str = SERVER_ID) -> Process:
        """Run ``generator`` as the server host's cooperative process."""
        return Process(self.scheduler, self.server_clock, generator, name=name)

    def spawn_verifier(self, generator: Generator,
                       name: str = VERIFIER_ID) -> Process:
        """Run ``generator`` as the server's verification worker.

        The worker has its own clock, so verification cost (RSA public
        ops per attestation) accrues in parallel with the dispatch
        process on :attr:`server_clock` — the server host never stalls
        its scheduling decisions behind a slow verify.
        """
        return Process(self.scheduler, self.verify_clock, generator, name=name)

    def spawn(self, host: FleetHost, generator: Generator,
              name: Optional[str] = None) -> Process:
        """Run ``generator`` as a cooperative process on ``host``."""
        return Process(self.scheduler, host.clock, generator,
                       name=name or host.machine_id)

    # -- messaging -------------------------------------------------------------

    def send_to_server(self, host: FleetHost, payload: Any):
        """Client → server message; arrives in the server mailbox."""
        return host.link.deliver(host.machine_id, SERVER_ID, payload,
                                 self.server_mailbox.put,
                                 now_ms=host.clock.now())

    def send_to_host(self, host: FleetHost, payload: Any):
        """Server → client message; arrives in the host's mailbox."""
        return host.link.deliver(SERVER_ID, host.machine_id, payload,
                                 host.mailbox.put,
                                 now_ms=self.server_clock.now())

    def post_local(self, clock: ScheduledClock, mailbox: Mailbox, payload: Any):
        """Same-host handoff between two server-side processes.

        Unlike a network ``deliver`` there is no latency, but causality
        still matters: the payload lands when the *sender's* local clock
        reaches now, not at the (possibly earlier) global time the
        sending process resumed at.
        """
        return self.scheduler.at(
            clock.now(), lambda: mailbox.put(payload),
            label=f"{clock.machine_id}:post",
        )

    # -- running ---------------------------------------------------------------

    def run(self, until_ms: Optional[float] = None) -> float:
        """Drive the schedule until idle (or ``until_ms``); returns the
        final global virtual time."""
        return self.scheduler.run(until_ms=until_ms)

    # -- reporting -------------------------------------------------------------

    def machine_reports(self) -> List[MachineReport]:
        """Per-machine activity summaries (clients, then the server).

        Every machine gets a row.  A machine that was never materialized
        never ran, so its row is all zeros — byte-identical to what its
        untouched :class:`~repro.sim.sched.ScheduledClock` and idle link
        would report, without paying to construct it.
        """
        reports = []
        for index, host in enumerate(self._slots):
            if host is None:
                reports.append(MachineReport(
                    machine_id=self.machine_id_at(index),
                    sessions=0,
                    busy_ms=0.0,
                    idle_ms=0.0,
                    utilization=0.0,
                    net_messages=0,
                    net_bytes=0,
                ))
                continue
            reports.append(MachineReport(
                machine_id=host.machine_id,
                sessions=host.sessions_run(),
                busy_ms=host.clock.busy_ms,
                idle_ms=host.clock.idle_ms,
                utilization=host.clock.utilization,
                net_messages=host.link.messages_carried,
                net_bytes=host.link.bytes_carried,
            ))
        # The server entry aggregates both server-side workers: the
        # dispatch loop and the verification worker (whose clock is
        # untouched — hence zero — when nothing spawns a verifier).
        busy = self.server_clock.busy_ms + self.verify_clock.busy_ms
        idle = self.server_clock.idle_ms + self.verify_clock.idle_ms
        horizon = max(self.server_clock.now(), self.verify_clock.now())
        reports.append(MachineReport(
            machine_id=SERVER_ID,
            sessions=0,
            busy_ms=busy,
            idle_ms=idle,
            utilization=busy / horizon if horizon > 0 else 0.0,
            net_messages=sum(h.link.messages_carried
                             for h in self.materialized_hosts()),
            net_bytes=sum(h.link.bytes_carried
                          for h in self.materialized_hosts()),
        ))
        return reports

    def hubs(self) -> Dict[str, Any]:
        """machine id → observability hub (for fleet Chrome export)."""
        out: Dict[str, Any] = {}
        for host in self.materialized_hosts():
            if host.platform.obs is not None:
                out[host.machine_id] = host.platform.obs
        if self.server_hub is not None:
            out[SERVER_ID] = self.server_hub
        if self.verify_hub is not None and self.verify_hub.spans:
            out[VERIFIER_ID] = self.verify_hub
        return out

    def traces(self) -> Dict[str, Any]:
        """machine id → raw event trace (materialized clients only; the
        server host is pure software and has no machine trace)."""
        return {host.machine_id: host.machine.trace
                for host in self.materialized_hosts()}
