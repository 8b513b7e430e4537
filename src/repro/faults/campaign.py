"""Adversarial fault campaigns over the paper's four applications.

A campaign sweeps N seeded :class:`~repro.faults.plan.FaultPlan`\\ s across
fresh platforms running the CA, SSH, rootkit-detector, and distributed
workloads, and classifies each run into one outcome class:

``ok``
    The workload completed and verified despite (or without) faults.
``retried-ok``
    Same, but only after the platform's retry policy absorbed transient
    TPM faults.
``session-aborted``
    The platform failed *closed*: a session or quote died on a typed
    error after the OS was restored.  Availability lost, nothing leaked.
``attestation-rejected``
    The workload ran but a verifier refused the evidence (tampered SLB,
    stale state, bad credential) — the detection working as designed.
``secret-leaked``
    A mid-session hardware probe obtained protected PAL memory.  The
    paper's guarantees say this class must be **empty**; any occurrence
    is a simulation bug.

Reports are deterministic: the same seeds produce byte-identical JSON
(virtual time only, sorted keys), and any single seed can be replayed with
its full fault trace via :func:`replay` or ``--replay``.

Run from the command line::

    python -m repro.faults.campaign --smoke          # 50 seeds x 4 apps
    python -m repro.faults.campaign --seeds 10 --out report.json
    python -m repro.faults.campaign --replay 17 --app ca
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro.apps.ca import CertificateAuthority, CertificateSigningRequest
from repro.apps.distributed import BOINCClient, BOINCServer
from repro.apps.rootkit_detector import RemoteAdministrator
from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.core.session import FlickerPlatform
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import (
    AttestationError,
    FlickerError,
    HardwareError,
    TPMError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

#: Outcome classes, in report order.
OUTCOMES = ("ok", "retried-ok", "session-aborted", "attestation-rejected",
            "secret-leaked")

#: Application scenarios a campaign drives.
APPS = ("ca", "ssh", "rootkit", "distributed")

#: Platform seed shared by every scenario run — campaign variation comes
#: entirely from the fault plans, which keeps runs comparable.
PLATFORM_SEED = 1234

_NONCE = b"\x5c" * 20


def _fresh_platform() -> FlickerPlatform:
    # Default (512-bit) functional keys: the smallest size PKCS1/SHA-1
    # signatures and the secure-channel padding both fit in.  Repeated
    # construction is cheap — identical seeds hit the RSA keygen memo cache.
    return FlickerPlatform(seed=PLATFORM_SEED)


# -- scenario drivers --------------------------------------------------------
#
# Each driver runs one workload end to end and returns "ok" or
# "attestation-rejected"; typed errors propagate to run_scenario, which
# classifies them.


def _drive_ca(platform: FlickerPlatform) -> str:
    ca = CertificateAuthority(platform)
    ca.initialize()  # session 0: keygen
    subject = generate_rsa_keypair(256, platform.machine.rng.fork("ca-subject"))
    csr = CertificateSigningRequest(subject="host.example.com",
                                    public_key=subject.public)
    certificate = ca.sign(csr)  # session 1: unseal, policy, sign
    if certificate is None or not certificate.verify(ca.public_key):
        return "attestation-rejected"
    attestation = platform.attest(ca.last_session.nonce)
    report = platform.verifier().verify(
        attestation, ca.last_session.image, ca.last_session.nonce
    )
    return "ok" if report.ok else "attestation-rejected"


def _drive_ssh(platform: FlickerPlatform) -> str:
    server = SSHServer(platform)
    server.add_user(PasswdEntry.create("alice", b"correct horse", b"f11cker0"))
    client = SSHClient(platform)
    # Session 0: channel setup (attested inside); session 1: login.
    outcome = client.connect_and_login(server, "alice", b"correct horse")
    return "ok" if outcome.authenticated else "attestation-rejected"


def _drive_rootkit(platform: FlickerPlatform) -> str:
    admin = RemoteAdministrator(platform)
    report = admin.run_detection_query()  # session 0 + quote
    if not report.attestation_valid:
        return "attestation-rejected"
    return "ok" if report.kernel_clean else "attestation-rejected"


def _drive_distributed(platform: FlickerPlatform) -> str:
    server = BOINCServer(n=15015, range_per_unit=400)
    client = BOINCClient(platform)
    unit = server.issue_unit()
    progress = client.start_unit(unit)  # session 0: init
    result = None
    while not progress.done:  # sessions 1..k: work slices
        progress, result = client.work_slice(progress, slice_ms=1000,
                                             nonce=_NONCE)
    attestation = platform.attest(_NONCE, result)
    accepted = server.accept_result(platform, unit, progress, result,
                                    attestation, _NONCE)
    return "ok" if accepted else "attestation-rejected"


DRIVERS = {
    "ca": _drive_ca,
    "ssh": _drive_ssh,
    "rootkit": _drive_rootkit,
    "distributed": _drive_distributed,
}


# -- running one scenario ----------------------------------------------------


def run_scenario(app: str, plan: FaultPlan, capture_trace: bool = False,
                 registry=None) -> Dict:
    """Run one app under one fault plan; returns a JSON-friendly record.

    With a :class:`repro.obs.MetricsRegistry` as ``registry``, the run's
    outcome, fired faults, and blocked probes are folded into campaign
    counters (the record itself is unchanged, so reports stay
    byte-compatible)."""
    if app not in DRIVERS:
        raise ValueError(f"unknown app {app!r} (choose from {APPS})")
    platform = _fresh_platform()
    injector = FaultInjector(plan).install(platform)
    try:
        outcome = DRIVERS[app](platform)
    except AttestationError:
        outcome = "attestation-rejected"
    except (FlickerError, TPMError, HardwareError):
        # Typed failure after the OS was restored: the platform failed
        # closed.  (Anything untyped propagates — that is a repro bug.)
        outcome = "session-aborted"
    if injector.leaks:
        outcome = "secret-leaked"
    trace = platform.machine.trace
    retries = len(trace.events(kind="session-retry")) + len(
        trace.events(kind="attest-retry")
    )
    if outcome == "ok" and retries:
        outcome = "retried-ok"
    record = {
        "app": app,
        "seed": plan.seed,
        "plan": plan.to_dict(),
        "outcome": outcome,
        "faults_fired": injector.fired,
        "retries": retries,
        "probes_blocked": sum(1 for p in injector.probe_results if p.blocked),
        "leaks": injector.leaks,
    }
    if capture_trace:
        record["fault_trace"] = [
            {"time_ms": e.time_ms, "kind": e.kind, "detail": dict(e.detail)}
            for e in trace.events(source="fault")
        ]
    if registry is not None:
        fold_record_into_registry(record, registry)
    return record


def fold_record_into_registry(record: Dict, registry) -> None:
    """Fold one scenario record into campaign counters.

    A pure function of the record, so folding can happen in the worker
    that ran the cell *or* after the fact in the parent process — the
    parallel executor relies on this to rebuild the exact registry a
    serial run would have produced.
    """
    registry.counter(
        "campaign_outcomes_total", "Campaign cells per outcome class"
    ).inc(app=record["app"], outcome=record["outcome"])
    for fired in record["faults_fired"]:
        registry.counter(
            "campaign_faults_fired_total", "Injected faults that fired"
        ).inc(kind=fired["kind"])
    if record["probes_blocked"]:
        registry.counter(
            "campaign_probes_blocked_total", "Hardware probes the DEV/CPU blocked"
        ).inc(record["probes_blocked"], app=record["app"])
    if record["retries"]:
        registry.counter(
            "campaign_retries_total", "Retries absorbed across the campaign"
        ).inc(record["retries"], app=record["app"])


def replay(seed: int, app: str, max_faults: int = 3,
           max_sessions: int = 3) -> Dict:
    """Re-run a single campaign cell with its full fault trace attached.

    Because plans are pure functions of their seed and platforms are
    seeded identically, the replayed record (and its trace) is exactly
    what the campaign observed."""
    plan = FaultPlan.generate(seed, max_faults=max_faults,
                              max_sessions=max_sessions)
    return run_scenario(app, plan, capture_trace=True)


# -- the campaign ------------------------------------------------------------


def _run_cell(cell) -> Dict:
    """One (seed, app) campaign cell — module-level so worker processes
    can unpickle it; regenerates the plan from the seed (plans are pure
    functions of their seed, so shipping the seed ships the plan)."""
    seed, app, max_faults, max_sessions = cell
    plan = FaultPlan.generate(seed, max_faults=max_faults,
                              max_sessions=max_sessions)
    return run_scenario(app, plan)


class FaultCampaign:
    """Sweep seeded fault plans across the application scenarios.

    ``workers`` opts into the multiprocessing executor: the seeded cells
    are sharded across that many worker processes (``0``/``None`` means
    one per CPU) and merged back in sweep order, so the report — and the
    metrics registry rebuilt from it — is **byte-identical** to a serial
    run.  Each cell is an independent seeded simulation; there is no
    cross-cell state to lose by sharding.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        apps: Sequence[str] = APPS,
        max_faults: int = 3,
        max_sessions: int = 3,
        workers: int = 1,
    ) -> None:
        self.seeds = list(seeds)
        self.apps = list(apps)
        self.max_faults = max_faults
        self.max_sessions = max_sessions
        self.workers = workers
        # Campaign-level outcome/fault/probe counters, populated by run().
        # Deterministic like the report: same seeds, same snapshot.
        from repro.obs import MetricsRegistry

        self.registry = MetricsRegistry()

    def run(self) -> Dict:
        """Run every (seed, app) cell; returns the deterministic report."""
        from repro.sim.parallel import map_seeded

        cells = [(seed, app, self.max_faults, self.max_sessions)
                 for seed in self.seeds for app in self.apps]
        results = map_seeded(_run_cell, cells, workers=self.workers)
        for record in results:
            fold_record_into_registry(record, self.registry)
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in results:
            counts[record["outcome"]] += 1
        return {
            "campaign": {
                "seeds": self.seeds,
                "apps": self.apps,
                "max_faults": self.max_faults,
                "max_sessions": self.max_sessions,
                "platform_seed": PLATFORM_SEED,
            },
            "results": results,
            "summary": {
                "runs": len(results),
                "outcomes": counts,
                "secret_leaked": counts["secret-leaked"],
            },
        }


def report_json(report: Dict) -> str:
    """Canonical JSON encoding: byte-identical for identical campaigns."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- CLI ---------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Run a deterministic fault-injection campaign.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run the standard 50-seed smoke campaign")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeded plans to sweep (default 10)")
    parser.add_argument("--apps", default=",".join(APPS),
                        help="comma-separated app subset (default: all)")
    parser.add_argument("--replay", type=int, metavar="SEED",
                        help="replay one seed (with --app) and print its "
                             "record plus fault trace")
    parser.add_argument("--app", default="ca",
                        help="app for --replay (default ca)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard seeded cells across N worker processes "
                             "(0 = one per CPU); the merged report is "
                             "byte-identical to a serial run (default 1)")
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the campaign's metrics snapshot "
                             "(outcome/fault/probe counters) as JSONL")
    args = parser.parse_args(argv)

    if args.replay is not None:
        if args.app not in DRIVERS:
            parser.error(f"unknown app {args.app!r} (choose from {APPS})")
        text = report_json(replay(args.replay, args.app))
    else:
        nseeds = 50 if args.smoke else args.seeds
        apps = tuple(a for a in args.apps.split(",") if a)
        unknown = [a for a in apps if a not in DRIVERS]
        if unknown:
            parser.error(f"unknown app(s) {unknown} (choose from {APPS})")
        campaign = FaultCampaign(seeds=range(nseeds), apps=apps,
                                 workers=args.workers)
        report = campaign.run()
        text = report_json(report)
        if args.metrics_out:
            from repro.obs import metrics_to_jsonl

            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(metrics_to_jsonl(campaign.registry))
        leaked = report["summary"]["secret_leaked"]
        print(f"{report['summary']['runs']} runs: "
              + ", ".join(f"{k}={v}" for k, v in
                          report["summary"]["outcomes"].items()),
              file=sys.stderr)
        if leaked:
            print("SECRET LEAK DETECTED — simulation invariant violated",
                  file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    if args.replay is None and report["summary"]["secret_leaked"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
