"""Multi-tenant vTPM sweep: ``python -m repro.tools.vtpm``.

Runs mutually-distrusting vTPM tenants (:mod:`repro.vtpm`) across a
:class:`~repro.core.fleet.FlickerFleet`: every tenant executes attested
Flicker sessions inside its own virtual TPM on shared hardware, and —
unless ``--no-migrate`` — half the machines hand one tenant to their
neighbour mid-run, exercising the migration protocol under load.  Every
attestation is verified; per-tenant rows carry the tenant's AIK identity
and virtual PCR 17 so migration fidelity is visible in the output.

Deterministic: the same seed and shape print the same bytes at any
``--workers`` count, migrations included — the nightly sweep ``cmp``'s
the JSON from two worker counts.

Options::

    --machines N      fleet machines (default 4)
    --tenants N       tenants provisioned per machine (default 2)
    --sessions N      attested sessions per tenant (default 2)
    --seed N          fleet seed (default 2008)
    --no-migrate      skip the mid-run migrations
    --shard-size N    split fleets larger than N machines into groups
                      run as separate cells, merged byte-identically
    --workers N       process-pool size for sharded runs (0 = auto)
    --json PATH       also write the full report dict as JSON
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional

from repro.core.pal import PAL, PALContext
from repro.crypto.sha1 import sha1
from repro.errors import PALRuntimeError
from repro.sim.parallel import merge_totals, run_sharded

#: Report schema tag.
REPORT_SCHEMA = "repro-vtpm-sweep/1"

#: Latency scenarios cycled across tenants, in a pinned order.
SCENARIO_CYCLE = ("discrete", "infineon", "mobile")


class TenantWorkloadPAL(PAL):
    """Minimal tenant workload: measure the input, bind it into PCR 17."""

    name = "vtpm-tenant-work"
    modules = ("tpm_utils", "crypto")

    def run(self, ctx: PALContext) -> None:
        if not ctx.inputs:
            raise PALRuntimeError("tenant workload needs an input")
        digest = ctx.crypto.sha1(ctx.inputs)
        ctx.charge(1.0, "tenant-work")
        ctx.tpm.pcr_extend(digest)
        ctx.write_output(digest)


def _aik_id(public) -> str:
    """Short stable identity of an AIK public key (survives migration)."""
    return sha1(f"{public.n}:{public.e}".encode("ascii")).hex()[:16]


def _run_tenant_sessions(fleet, host, name: str, pal: TenantWorkloadPAL,
                         count: int, start: int,
                         counters: Dict[str, int]) -> int:
    """Run ``count`` attested sessions for ``name`` on ``host``; every
    attestation is checked against the host's verifier.  Returns how
    many verified."""
    verified = 0
    for k in range(start, start + count):
        inputs = f"{name}:session:{k}".encode("ascii")
        nonce = sha1(f"vtpm-sweep:{name}:{k}".encode("ascii"))
        result = host.platform.execute_pal(pal, inputs=inputs, nonce=nonce,
                                           tenant=name)
        attestation = host.platform.attest(nonce, result, tenant=name)
        report = fleet.verifier_for(host.machine_id).verify(
            attestation, result.image, nonce, pal_extends=[sha1(inputs)])
        if report.ok:
            verified += 1
        host.platform.vtpm.tenant(name).increment_counter(
            _tenant_counter(counters, host, name))
    return verified


def _tenant_counter(counters: Dict[str, int], host, name: str) -> int:
    """The tenant's session counter id, recorded in ``counters`` — created
    on first use; the id is part of the vTPM snapshot, so it stays valid
    across migration."""
    if name not in counters:
        counters[name] = (
            host.platform.vtpm.tenant(name).create_counter(b"sessions"))
    return counters[name]


def run_vtpm_cell(config: dict) -> dict:
    """One fleet cell of the sweep — module-level so worker processes
    can unpickle it.  Returns the cell's report as a plain dict."""
    from repro.core.fleet import FlickerFleet

    machines = config.get("machines", 4)
    tenants_per_machine = config.get("tenants", 2)
    sessions = config.get("sessions", 2)
    seed = config.get("seed", 2008)
    migrate = config.get("migrate", True)
    index_base = config.get("index_base", 0)

    fleet = FlickerFleet(num_machines=machines, seed=seed,
                         index_base=index_base)
    pal = TenantWorkloadPAL()

    #: tenant name → its current host (migrations reassign).
    location: Dict[str, Any] = {}
    #: tenant name → its session counter id.
    counters: Dict[str, int] = {}
    home: Dict[str, str] = {}
    scenario: Dict[str, str] = {}
    verified: Dict[str, int] = {}
    migrated: List[str] = []

    for i, host in enumerate(fleet.hosts):
        g = index_base + i
        for j in range(tenants_per_machine):
            name = f"tenant-{g:04d}-{j}"
            scenario[name] = SCENARIO_CYCLE[(g + j) % len(SCENARIO_CYCLE)]
            host.platform.vtpm.create_tenant(name, scenario=scenario[name])
            location[name] = host
            home[name] = host.machine_id
            verified[name] = 0

    first = (sessions + 1) // 2
    for name in sorted(location):
        verified[name] += _run_tenant_sessions(
            fleet, location[name], name, pal, first, start=0,
            counters=counters)

    if migrate and machines >= 2 and tenants_per_machine >= 1:
        # Mid-run migrations: every even machine hands its first tenant
        # to its (intra-cell) neighbour — sharding never splits a pair.
        for i in range(0, machines - 1, 2):
            g = index_base + i
            name = f"tenant-{g:04d}-0"
            source, destination = fleet.hosts[i], fleet.hosts[i + 1]
            fleet.migrate_tenant(source.machine_id, destination.machine_id,
                                 name)
            location[name] = destination
            migrated.append(name)

    for name in sorted(location):
        verified[name] += _run_tenant_sessions(
            fleet, location[name], name, pal, sessions - first, start=first,
            counters=counters)

    per_tenant = []
    for name in sorted(location):
        host = location[name]
        vt = host.platform.vtpm.tenant(name)
        per_tenant.append({
            "tenant": name,
            "scenario": scenario[name],
            "home": home[name],
            "machine": host.machine_id,
            "migrated": name in migrated,
            "sessions": sessions,
            "verified": verified[name],
            "aik": _aik_id(vt.aik_public),
            "pcr17": vt.pcrs.read(17).hex(),
            "counter": vt.read_counter(_tenant_counter(counters, host, name)),
        })
    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "machines": machines,
        "tenants_per_machine": tenants_per_machine,
        "sessions_per_tenant": sessions,
        "tenants": len(per_tenant),
        "sessions": sessions * len(per_tenant),
        "verified": sum(verified.values()),
        "migrations": len(migrated),
        "per_tenant": per_tenant,
    }


def merge_vtpm_reports(groups: List[dict]) -> dict:
    """Merge per-group cell reports from one sharded sweep: counts sum,
    ``per_tenant`` concatenates in group (= machine) order, so the
    merged dict is byte-identical at any worker count."""
    return merge_totals(
        groups,
        sums=("machines", "tenants", "sessions", "verified", "migrations"),
        concat=("per_tenant",),
        first=("schema", "seed", "tenants_per_machine",
               "sessions_per_tenant"),
    )


def run_vtpm_sweep(config: dict, workers: int = 1,
                   shard_size: Optional[int] = None) -> dict:
    """One sweep: shard the fleet into machine groups of an even size, so
    migration pairs (machines 2k → 2k+1) never cross a group boundary,
    run each group as its own cell and merge."""
    if shard_size is not None:
        shard_size += shard_size % 2
    [report] = run_sharded(run_vtpm_cell, [config], merge_vtpm_reports,
                           shard_size=shard_size, workers=workers)
    return report


def render(report: dict) -> str:
    """Human-readable summary of one sweep report."""
    lines = [
        "# vTPM multi-tenant sweep",
        f"(seed {report['seed']}; deterministic virtual-time results)",
        "",
        f"machines:           {report['machines']}",
        f"tenants:            {report['tenants']} "
        f"({report['tenants_per_machine']} per machine)",
        f"attested sessions:  {report['sessions']}",
        f"verified:           {report['verified']}",
        f"migrations:         {report['migrations']}",
    ]
    if "shards" in report:
        lines.append(f"shard groups:       {report['shards']}")
    lines.append("")
    lines.append("tenant            scenario  machine     migrated  "
                 "ok  aik")
    for row in report["per_tenant"]:
        lines.append(
            f"{row['tenant']:<17} {row['scenario']:<9} "
            f"{row['machine']:<11} {str(row['migrated']):<9} "
            f"{row['verified']}/{row['sessions']}  {row['aik']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.vtpm",
        description="Multi-tenant vTPM attestation and migration sweep.",
    )
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--no-migrate", action="store_true")
    parser.add_argument("--shard-size", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    config = dict(
        machines=args.machines,
        tenants=args.tenants,
        sessions=args.sessions,
        seed=args.seed,
        migrate=not args.no_migrate,
    )
    report = run_vtpm_sweep(config, workers=args.workers,
                            shard_size=args.shard_size)
    print(render(report))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True,
                                separators=(", ", ": ")) + "\n")
        print(f"\nwrote JSON report to {args.json}")


if __name__ == "__main__":
    main()
