"""Distribution jobs as sweep cells for :func:`repro.sim.parallel.run_sharded`.

:func:`run_dist` builds a fleet, installs per-machine faults and runs one
:class:`~repro.dist.service.WorkDistributionService` job from plain
keyword arguments, so a job is fully described by a picklable dict.
:func:`dist_cell` is that job as a sweep cell, :func:`split_dist_group`
hands each machine group of a sharded fleet its exact share of the
units, and :func:`merge_dist_cells` merges the group cells back.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.distributed import DEFAULT_N
from repro.core.fleet import FlickerFleet
from repro.crypto.sha1 import sha1
from repro.dist.client import parse_behaviors
from repro.dist.quorum import QuorumPolicy
from repro.dist.service import JobSpec, WorkDistributionService
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim.parallel import merge_totals, rate, split_machines


def parse_faults(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a fault spec into a per-machine :class:`FaultPlan`.

    Entries are ``INDEX:KIND`` or ``INDEX:KIND:MAGNITUDE``; each becomes
    a :class:`FaultSpec` addressed to ``client-INDEX``::

        >>> plan = parse_faults("2:slb-bit-flip:64,5:tpm-transient")
        >>> (plan.specs[0].machine, plan.specs[0].magnitude)
        ('client-02', 64)
        >>> parse_faults("").specs
        ()
    """
    specs = []
    if spec:
        for entry in spec.split(","):
            parts = entry.strip().split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault entry {entry!r}; want INDEX:KIND[:MAGNITUDE]"
                )
            index = int(parts[0])
            magnitude = int(parts[2]) if len(parts) == 3 else 0
            specs.append(FaultSpec(
                kind=parts[1], magnitude=magnitude,
                machine=f"client-{index:02d}",
            ))
    return FaultPlan(seed=seed, specs=tuple(specs))


def run_dist(
    machines: int = 8,
    units: int = 32,
    quorum: int = 3,
    trusted_quorum: int = 1,
    behaviors: str = "",
    faults: str = "",
    timeout_ms: float = 60_000.0,
    slice_ms: float = 2000.0,
    range_per_unit: int = 400,
    batch_size: int = 16,
    seed: int = 2008,
    index_base: int = 0,
):
    """Build fleet + service, install faults, run; returns
    ``(service, report)``.  ``index_base`` numbers the machines globally
    (a sharded sweep runs each machine group as its own service)."""
    fleet = FlickerFleet(num_machines=machines, seed=seed,
                         index_base=index_base)
    plan = parse_faults(faults, seed=seed)
    for host in fleet.hosts:
        sub = plan.for_machine(host.machine_id)
        if sub.specs:
            FaultInjector(sub).install(host.platform)
    service = WorkDistributionService(
        fleet,
        JobSpec(n=DEFAULT_N, total_units=units, range_per_unit=range_per_unit,
                batch_size=batch_size, slice_ms=slice_ms,
                timeout_ms=timeout_ms),
        quorum=QuorumPolicy(base_quorum=quorum,
                            trusted_quorum=trusted_quorum),
        behaviors=parse_behaviors(behaviors),
    )
    return service, service.run()


def dist_cell(config: dict) -> dict:
    """One job (keyword ``config`` for :func:`run_dist`) as a sweep cell:
    the report dict plus the job database's dump digest (the
    replay-identity witness)."""
    service, report = run_dist(**config)
    cell = report.to_dict()
    cell["db_sha1"] = sha1(service.db.dump_json().encode()).hex()
    return cell


def split_dist_group(config: dict, base: int, count: int) -> Optional[dict]:
    """A machine group of a job config with its proportional share of the
    units, by cumulative-quota differencing: the shares are exact (they
    always sum to the config's ``units``).  A group whose share is zero
    is dropped; its machines stay idle."""
    machines, units = config["machines"], config.get("units", 32)
    share = units * (base + count) // machines - units * base // machines
    if share == 0:
        return None
    return {**split_machines(config, base, count), "units": share}


def merge_dist_cells(groups: List[dict]) -> dict:
    """Merge the group cells of one sharded job.

    Counters sum, the makespan and queue depth are the largest group's,
    and the three rates are recomputed from the merged totals.
    ``db_sha1`` becomes the digest of the concatenated group digests (in
    ``index_base`` order) — still a replay-identity witness, now for the
    whole group set.
    """
    merged = merge_totals(
        groups,
        sums=("fleet_size", "total_units", "units_validated",
              "units_abandoned", "units_unresolved", "units_flagged",
              "assignments", "resends", "timeouts", "late", "failures",
              "rejected_attestation", "rejected_state", "total_sessions",
              "verify_count", "verify_busy_ms"),
        maxes=("makespan_ms", "max_verify_queue_depth"),
        concat=("per_client",),
        first=("schema",),
    )
    merged["resend_rate"] = rate(merged["resends"], merged["assignments"])
    merged["sessions_per_virtual_second"] = rate(
        merged["total_sessions"], merged["makespan_ms"], per=1000.0)
    merged["verify_throughput_per_vsec"] = rate(
        merged["verify_count"], merged["verify_busy_ms"], per=1000.0)
    merged["found"] = sorted(set(f for g in groups for f in g["found"]))
    merged["group_db_sha1"] = [g["db_sha1"] for g in groups]
    merged["db_sha1"] = sha1(
        "".join(g["db_sha1"] for g in groups).encode()).hex()
    return merged
