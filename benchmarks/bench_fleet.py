"""Fleet scaling — aggregate session throughput vs fleet size.

The fleet's figure of merit: N client machines running the §6.2
distributed-factoring workload *concurrently* complete ~N× the Flicker
sessions of one machine in the same virtual interval, because each
machine's TPM-dominated session cost is paid in parallel while the
server's per-result verification (three RSA public ops, well under a
millisecond) stays negligible.

Two sections:

* ``virtual.sweep`` — the classic scaling sweep (byte-pinned by the
  committed baseline).
* ``virtual.tenk`` — a 10,000-machine fleet: lazily materialized,
  sharded into machine groups (:func:`repro.sim.parallel.run_sharded`),
  with a sparse active client set.  The full per-machine report (10k
  rows) is too large to commit, so the baseline pins the aggregates plus
  ``report_sha1``, the digest of the canonical full report — any
  behavior drift in any of the 10,000 rows changes the digest.

``test_fleet_scaling`` also times template/lazy 10k fleet construction
against eager per-machine construction (sampled and extrapolated) and
asserts the ``speedup_x`` of at least 50x; both timings come from one
process, so the ratio holds on any host.

Registered with the unified runner as ``fleet``; the committed
``BENCH_fleet.json`` baseline is produced by
``python -m repro.tools.bench --quick`` (see docs/BENCHMARKS.md for the
refresh procedure).  The sweep itself runs through
:func:`repro.sim.parallel.run_sharded` with the fleet cells of
:mod:`repro.apps.distributed`, so ``workers > 1`` shards the cells
across processes with byte-identical results.
"""

import json
import time

from benchmarks.conftest import print_table
from repro.apps.distributed import fleet_cell, merge_fleet_reports, split_fleet_group
from repro.bench import register
from repro.sim.parallel import run_sharded

FLEET_SIZES = (1, 4, 16, 64)
QUICK_SIZES = (1, 4, 16)

#: Machines in the big-fleet cell (the ISSUE-8 scale target).
TENK_MACHINES = 10_000
#: Machines per shard group for the big-fleet cell.
TENK_SHARD = 256
#: Active clients: nightly full mode works a whole shard's worth...
TENK_CLIENTS = 256
#: ...while the committed quick baseline keeps CI fast with 16.
TENK_CLIENTS_QUICK = 16

#: Machines timed per construction mode by :func:`test_fleet_scaling`
#: (eager construction of all 10k would take minutes; the per-machine
#: cost is flat, so a sample extrapolates faithfully).
CONSTRUCTION_SAMPLE = 8


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "))


def _tenk_cell(seed, units_per_client, slice_ms, range_per_unit,
               big_machines, big_clients, big_shard, workers):
    """Run the sharded big-fleet sweep; returns its virtual cell."""
    from repro.crypto.sha1 import sha1

    config = dict(machines=big_machines, units_per_client=units_per_client,
                  slice_ms=slice_ms, range_per_unit=range_per_unit,
                  seed=seed, clients=big_clients)
    [report] = run_sharded(fleet_cell, [config], merge_fleet_reports,
                           split=split_fleet_group, shard_size=big_shard,
                           workers=workers)
    digest = sha1(_canonical(report).encode()).hex()
    cell = {k: v for k, v in report.items() if k != "per_machine"}
    cell["active_clients"] = big_clients
    cell["report_sha1"] = digest
    return cell


def _construction_wall(big_machines, sample):
    """Template/lazy vs eager per-machine construction, wall-clock.

    The eager baseline clones fresh seeds (disjoint from every cache)
    and enrols each clone's AIK at once — the pre-template construction
    path, where each machine pays keygen and AIK enrolment up front.
    """
    from repro.core.fleet import FlickerFleet, derive_machine_seed
    from repro.core.session import FlickerPlatform

    start = time.perf_counter()
    fleet = FlickerFleet(num_machines=big_machines, seed=2008)
    lazy_fleet_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(sample):
        fleet.hosts[i].platform.tqd.aik_certificate  # noqa: B018
    lazy_per_machine = (time.perf_counter() - start) / sample

    template = FlickerPlatform.template()
    seeds = [derive_machine_seed(0xE5CA1ADE, i) for i in range(sample)]
    start = time.perf_counter()
    for i, seed in enumerate(seeds):
        platform = template.clone(seed=seed, machine_id=f"eager-{i:02d}")
        platform.tqd.aik_certificate  # noqa: B018 — forces enrolment
    eager_per_machine = (time.perf_counter() - start) / sample

    eager_extrapolated = eager_per_machine * big_machines
    return {
        "lazy_fleet_seconds": round(lazy_fleet_seconds, 6),
        "lazy_active_per_machine_seconds": round(lazy_per_machine, 6),
        "eager_per_machine_seconds": round(eager_per_machine, 6),
        "eager_extrapolated_s": round(eager_extrapolated, 3),
        "sample_machines": sample,
        "speedup_x": round(eager_extrapolated / lazy_fleet_seconds, 1)
        if lazy_fleet_seconds > 0 else float("inf"),
    }


def run_bench(sizes=FLEET_SIZES, seed=2008, units_per_client=1,
              slice_ms=2000.0, range_per_unit=400, workers=1,
              big_machines=TENK_MACHINES, big_clients=TENK_CLIENTS,
              big_shard=TENK_SHARD):
    """Registered entry point: scaling sweep + 10k fleet."""
    configs = [
        dict(machines=size, units_per_client=units_per_client,
             slice_ms=slice_ms, range_per_unit=range_per_unit, seed=seed)
        for size in sizes
    ]
    reports = run_sharded(fleet_cell, configs, merge_fleet_reports,
                          workers=workers)
    tenk = _tenk_cell(seed, units_per_client, slice_ms, range_per_unit,
                      big_machines, big_clients, big_shard, workers)
    return {
        "virtual": {
            "sweep": {str(size): report
                      for size, report in zip(sizes, reports)},
            "tenk": tenk,
        },
    }


register(
    "fleet", run_bench,
    params={"sizes": FLEET_SIZES, "seed": 2008, "units_per_client": 1,
            "slice_ms": 2000.0, "range_per_unit": 400, "workers": 1,
            "big_machines": TENK_MACHINES, "big_clients": TENK_CLIENTS,
            "big_shard": TENK_SHARD},
    quick_params={"sizes": QUICK_SIZES, "seed": 2008, "units_per_client": 1,
                  "slice_ms": 2000.0, "range_per_unit": 400, "workers": 1,
                  "big_machines": TENK_MACHINES,
                  "big_clients": TENK_CLIENTS_QUICK,
                  "big_shard": TENK_SHARD},
    description="Fleet scaling: sessions/virtual-second vs fleet size, "
                "plus the sharded 10,000-machine sweep (distributed "
                "factoring, §6.2)",
)


def test_fleet_scaling():
    results = run_bench(sizes=FLEET_SIZES)
    sweep = results["virtual"]["sweep"]
    tenk = results["virtual"]["tenk"]
    construction = _construction_wall(TENK_MACHINES, CONSTRUCTION_SAMPLE)
    throughput = {
        size: sweep[str(size)]["sessions_per_virtual_second"]
        for size in FLEET_SIZES
    }
    print_table(
        "Fleet scaling: distributed factoring, 1 unit per client",
        ["Machines", "Sessions", "Makespan (ms)", "Sessions/vsec",
         "Speedup", "Net bytes"],
        [
            (size,
             sweep[str(size)]["total_sessions"],
             f"{sweep[str(size)]['makespan_ms']:.1f}",
             f"{throughput[size]:.3f}",
             f"{throughput[size] / throughput[1]:.1f}x",
             sweep[str(size)]["network_bytes"])
            for size in FLEET_SIZES
        ] + [
            (tenk["fleet_size"],
             tenk["total_sessions"],
             f"{tenk['makespan_ms']:.1f}",
             f"{tenk['sessions_per_virtual_second']:.3f}",
             f"{tenk['shards']} shards",
             tenk["network_bytes"])
        ],
    )

    # Every unit on every fleet size verifies.
    for size in FLEET_SIZES:
        assert sweep[str(size)]["units_accepted"] == size
        assert sweep[str(size)]["units_rejected"] == 0
    # The scaling claim: 16 machines deliver >= 10x the aggregate virtual
    # throughput of one machine (near-linear; the gap is network latency
    # plus the server's serialized verification work).
    assert throughput[16] >= 10.0 * throughput[1]
    assert throughput[64] > throughput[16]
    # The 10k fleet: every dispatched unit verifies, all 10,000 machines
    # are accounted for, and template/lazy construction beats eager
    # per-machine construction by the required 50x margin.
    assert tenk["fleet_size"] == TENK_MACHINES
    assert tenk["units_accepted"] == TENK_CLIENTS
    assert tenk["units_rejected"] == 0
    assert construction["speedup_x"] >= 50.0
