"""Work-distribution report: ``python -m repro.tools.dist``.

Runs the BOINC-grade distribution service
(:class:`~repro.dist.service.WorkDistributionService`) on a
:class:`~repro.core.fleet.FlickerFleet` and prints the quorum,
reputation, and throughput outcome.  Deterministic: the same seed and
shape print the same bytes on every run and every machine.

Options::

    --machines N          client machines in the fleet (default 8)
    --units N             total work units in the job (default 32)
    --quorum K            vote target for untrusted clients (default 3)
    --trusted-quorum K    vote target for trusted clients (default 1)
    --behaviors SPEC      comma list of INDEX:KIND[:DELAY_MS] client
                          behaviors (kinds: honest lazy forge dropout
                          flaky); unlisted machines are honest
    --faults SPEC         comma list of INDEX:KIND[:MAGNITUDE] fault
                          specs installed per machine (e.g.
                          "2:slb-bit-flip:64,5:tpm-transient")
    --timeout-ms MS       per-assignment response deadline (default 60000)
    --seed N              fleet + job seed (default 2008)
    --report              print the human-readable report (default when
                          no other output is selected)
    --json PATH           write the report dict as canonical JSON
    --dump-db PATH        write the byte-canonical job-database dump
    --replay PATH         rebuild the report from a dump instead of
                          running the simulation (proves the report is a
                          pure function of the database)
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.dist import JobDatabase, build_report
from repro.dist.sweep import dist_cell, merge_dist_cells, run_dist, split_dist_group
from repro.sim.parallel import run_sharded
from repro.tools.tables import format_table


def format_report(report) -> str:
    """The printable report for one finished (or replayed) run."""
    client_rows = [
        (
            c["client"],
            c["issued"],
            c["returned"],
            c["valid"],
            c["outvoted"],
            c["rejected"],
            c["timeouts"],
            c["late"],
            c["spot_checks"],
            "yes" if c["trusted"] else "no",
        )
        for c in report.per_client
    ]
    aggregate_rows = [
        ("client machines", report.fleet_size),
        ("units validated / total",
         f"{report.units_validated} / {report.total_units}"),
        ("units abandoned", report.units_abandoned),
        ("units flagged (ever)", report.units_flagged),
        ("assignments (resends)",
         f"{report.assignments} ({report.resends})"),
        ("resend rate", f"{report.resend_rate:.4f}"),
        ("rejected: attestation / state",
         f"{report.rejected_attestation} / {report.rejected_state}"),
        ("timeouts / late / failures",
         f"{report.timeouts} / {report.late} / {report.failures}"),
        ("makespan (virtual ms)", f"{report.makespan_ms:.1f}"),
        ("sessions / virtual second",
         f"{report.sessions_per_virtual_second:.3f}"),
        ("verify throughput (/vsec)",
         f"{report.verify_throughput_per_vsec:.1f}"),
        ("max verify queue depth", report.max_verify_queue_depth),
        ("factors found", " ".join(str(f) for f in report.found)),
    ]
    return "\n".join([
        "# Flicker work distribution — quorum over attested results",
        "(all times are deterministic virtual-time results)",
        format_table(
            "Per-client outcomes",
            ["Client", "Issued", "Ret", "Valid", "Outvoted", "Rej",
             "T/O", "Late", "Spot", "Trusted"],
            client_rows,
        ),
        format_table("Aggregate", ["Quantity", "Value"], aggregate_rows),
    ])


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.dist",
        description="BOINC-grade work distribution with quorum validation "
                    "of attested results.",
    )
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--units", type=int, default=32)
    parser.add_argument("--quorum", type=int, default=3)
    parser.add_argument("--trusted-quorum", type=int, default=1)
    parser.add_argument("--behaviors", default="")
    parser.add_argument("--faults", default="")
    parser.add_argument("--timeout-ms", type=float, default=60_000.0)
    parser.add_argument("--slice-ms", type=float, default=2000.0)
    parser.add_argument("--range-per-unit", type=int, default=400)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--shard-size", type=int, default=None,
                        help="split fleets larger than this into machine "
                             "groups, each its own service instance")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sharded groups "
                             "(0 = one per CPU)")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--dump-db", metavar="PATH", default=None)
    parser.add_argument("--replay", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    import json

    config = dict(
        machines=args.machines, units=args.units, quorum=args.quorum,
        trusted_quorum=args.trusted_quorum, behaviors=args.behaviors,
        faults=args.faults, timeout_ms=args.timeout_ms,
        slice_ms=args.slice_ms, range_per_unit=args.range_per_unit,
        batch_size=args.batch_size, seed=args.seed,
    )
    if args.shard_size is not None and not args.replay:
        [cell] = run_sharded(dist_cell, [config], merge_dist_cells,
                             split=split_dist_group,
                             shard_size=args.shard_size,
                             workers=args.workers)
        payload = json.dumps(cell, sort_keys=True,
                             separators=(",", ": ")) + "\n"
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"wrote JSON report to {args.json}")
        else:
            print(payload, end="")
        return

    if args.replay:
        with open(args.replay) as fh:
            try:
                db = JobDatabase.from_json(fh.read())
            except ValueError as exc:
                raise SystemExit(f"--replay {args.replay}: {exc}") from None
        report = build_report(db)
        service = None
        print(f"(replayed from {args.replay}; no simulation ran)")
    else:
        service, report = run_dist(**config)

    if args.report or not (args.json or args.dump_db):
        print(format_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True,
                                separators=(",", ": ")) + "\n")
        print(f"wrote JSON report to {args.json}")
    if args.dump_db:
        if service is None:
            raise SystemExit("--dump-db needs a live run, not --replay")
        with open(args.dump_db, "w") as fh:
            fh.write(service.db.dump_json())
        print(f"wrote job-database dump to {args.dump_db}")


if __name__ == "__main__":
    main()
