"""Fleet throughput report: ``python -m repro.tools.fleet_report``.

Runs the §6.2 distributed-factoring project concurrently on a
:class:`~repro.core.fleet.FlickerFleet` and prints per-machine plus
aggregate throughput — sessions per virtual second, utilization, and
network traffic.  Deterministic: the same seed and fleet shape print the
same bytes on every run and every machine.

Options::

    --machines N          client machines in the fleet (default 4)
    --units-per-client N  work units dispatched to each client (default 2)
    --slice-ms MS         Flicker session slice length (default 2000)
    --range-per-unit N    divisors per work unit (default 400)
    --seed N              fleet seed (default 2008)
    --jitter-ms MS        seeded gaussian network jitter (default 0)
    --shard-size N        split fleets larger than N machines into groups
                          run as separate cells, merged byte-identically
    --workers N           process-pool size for sharded runs (0 = auto)
    --json PATH           also write the full report dict as JSON
    --chrome PATH         also write a per-machine-track Chrome trace
                          (implies observability; load in Perfetto)
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.apps.distributed import (
    fleet_cell,
    merge_fleet_reports,
    run_fleet,
    split_fleet_group,
)
from repro.sim.parallel import run_sharded
from repro.tools.tables import format_table


def build_report_dict(report: dict, seed: int,
                      extra_rows: Sequence[Sequence] = ()) -> str:
    """The printable report from a plain report *dict* — the shape both
    :meth:`FleetProjectReport.to_dict` and
    :func:`~repro.apps.distributed.merge_fleet_reports` produce, so flat
    and sharded runs render identically."""
    machine_rows = [
        (
            m["machine_id"],
            m["sessions"],
            f"{m['units_accepted']}/{m['units_accepted'] + m['units_rejected']}",
            f"{m['busy_ms']:.1f}",
            f"{m['utilization']:.4f}",
            m["net_messages"],
            m["net_bytes"],
        )
        for m in report["per_machine"]
    ]
    machine_rows.extend(extra_rows)
    aggregate_rows = [
        ("client machines", report["fleet_size"]),
        ("units accepted / issued",
         f"{report['units_accepted']} / {report['units_issued']}"),
        ("makespan (virtual ms)", f"{report['makespan_ms']:.1f}"),
        ("total sessions", report["total_sessions"]),
        ("sessions / virtual second",
         f"{report['sessions_per_virtual_second']:.3f}"),
        ("fleet efficiency (useful/busy)", f"{report['efficiency']:.3f}"),
        ("network messages", report["network_messages"]),
        ("network bytes", report["network_bytes"]),
    ]
    if "shards" in report:
        aggregate_rows.append(("shard groups", report["shards"]))
    return "\n".join([
        "# Flicker fleet — distributed factoring (§6.2, concurrent)",
        f"(seed {seed}; all times are deterministic virtual-time results)",
        format_table(
            "Per-machine activity",
            ["Machine", "Sessions", "Units ok", "Busy (ms)",
             "Utilization", "Msgs", "Bytes"],
            machine_rows,
        ),
        format_table("Aggregate throughput", ["Quantity", "Value"], aggregate_rows),
    ])


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fleet_report",
        description="Concurrent multi-machine Flicker fleet throughput report.",
    )
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--units-per-client", type=int, default=2)
    parser.add_argument("--slice-ms", type=float, default=2000.0)
    parser.add_argument("--range-per-unit", type=int, default=400)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--jitter-ms", type=float, default=0.0)
    parser.add_argument("--shard-size", type=int, default=None,
                        help="split fleets larger than N machines into "
                             "contiguous groups run as separate cells")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for sharded runs "
                             "(0 = one per CPU)")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--chrome", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    config = dict(
        machines=args.machines,
        units_per_client=args.units_per_client,
        slice_ms=args.slice_ms,
        range_per_unit=args.range_per_unit,
        seed=args.seed,
        jitter_ms=args.jitter_ms,
        observability=args.chrome is not None,
    )
    if args.shard_size is not None or args.workers != 1:
        if args.chrome:
            parser.error("--chrome requires a flat run "
                         "(drop --shard-size/--workers)")
        [report_dict] = run_sharded(fleet_cell, [config],
                                    merge_fleet_reports,
                                    split=split_fleet_group,
                                    shard_size=args.shard_size,
                                    workers=args.workers)
        fleet = None
        print(build_report_dict(report_dict, args.seed))
    else:
        fleet, report = run_fleet(**config)
        report_dict = report.to_dict()
        # A flat run also has the server machine's row.
        server = fleet.machine_reports()[-1]
        print(build_report_dict(report_dict, args.seed, extra_rows=[(
            server.machine_id, "-", "-", f"{server.busy_ms:.1f}",
            f"{server.utilization:.4f}", server.net_messages,
            server.net_bytes)]))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            fh.write(json.dumps(report_dict, sort_keys=True,
                                separators=(", ", ": ")) + "\n")
        print(f"\nwrote JSON report to {args.json}")
    if args.chrome:
        from repro.obs import export_fleet_chrome_trace

        with open(args.chrome, "w") as fh:
            fh.write(export_fleet_chrome_trace(fleet.hubs(), fleet.traces()))
        print(f"wrote Chrome trace to {args.chrome} (load in Perfetto)")


if __name__ == "__main__":
    main()
