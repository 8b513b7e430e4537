"""One-shot experiment report: ``python -m repro.tools.report``.

Regenerates the paper's headline numbers (a condensed form of the full
benchmark harness in ``benchmarks/``) and prints paper-vs-measured rows.
Deterministic: the same numbers appear on every run and every machine.
"""

from __future__ import annotations

from repro.apps.ca import CertificateAuthority, CertificateSigningRequest
from repro.apps.distributed import BOINCClient, FactoringWorkUnit, flicker_efficiency
from repro.apps.rootkit_detector import RemoteAdministrator
from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.core import FlickerPlatform
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import BROADCOM_BCM0102
from repro.tools.tables import format_table


def rootkit_section() -> str:
    platform = FlickerPlatform(seed=1022)
    admin = RemoteAdministrator(platform)
    report = admin.run_detection_query()
    return format_table(
        "Rootkit detector (Table 1 / §7.2)",
        ["Quantity", "Paper", "Measured"],
        [
            ("end-to-end query (ms)", "1022.7", f"{report.query_latency_ms:.1f}"),
            ("kernel clean", "yes", "yes" if report.kernel_clean else "NO"),
        ],
    )


def skinit_section() -> str:
    rows = []
    for kb, paper in ((4, 11.9), (16, 45.0), (32, 89.2), (64, 177.5)):
        rows.append((f"{kb} KB", f"{paper:.1f}",
                     f"{BROADCOM_BCM0102.skinit_ms(min(kb * 1024, 0xFFFC)):.1f}"))
    return format_table("SKINIT vs SLB size (Table 2)",
                  ["SLB size", "Paper (ms)", "Model (ms)"], rows)


def ssh_section() -> str:
    platform = FlickerPlatform(seed=1023)
    server = SSHServer(platform)
    server.add_user(PasswdEntry.create("alice", b"p4ssw0rd", b"fLiCkEr1"))
    outcome = SSHClient(platform).connect_and_login(server, "alice", b"p4ssw0rd")
    return format_table(
        "SSH password authentication (Figure 9 / §7.4.1)",
        ["Quantity", "Paper", "Measured"],
        [
            ("authenticated", "yes", "yes" if outcome.authenticated else "NO"),
            ("connect → prompt (ms)", "1221", f"{outcome.time_to_prompt_ms:.0f}"),
            ("entry → session (ms)", "~940", f"{outcome.time_after_entry_ms:.0f}"),
        ],
    )


def ca_section() -> str:
    platform = FlickerPlatform(seed=1024)
    ca = CertificateAuthority(platform)
    ca.initialize()
    keys = generate_rsa_keypair(512, DeterministicRNG(55))
    before = platform.machine.clock.now()
    cert = ca.sign(CertificateSigningRequest("www.example.com", keys.public))
    elapsed = platform.machine.clock.now() - before
    return format_table(
        "Certificate authority (§7.4.2)",
        ["Quantity", "Paper", "Measured"],
        [
            ("sign one CSR (ms)", "906.2", f"{elapsed:.1f}"),
            ("certificate verifies", "yes", "yes" if cert.verify(ca.public_key) else "NO"),
        ],
    )


def distributed_section() -> str:
    platform = FlickerPlatform(seed=1025)
    client = BOINCClient(platform)
    unit = FactoringWorkUnit(unit_id=1, n=15015, start=2, end=4)
    progress = client.start_unit(unit)
    clock = platform.machine.clock
    before = clock.now()
    client.work_slice(progress, slice_ms=1000.0)
    total = clock.now() - before
    overhead = total - 1000.0
    rows = [("per-session overhead (ms)", "912.6", f"{overhead:.1f}")]
    for latency_s, paper in ((2, "0.54"), (8, "0.89")):
        rows.append(
            (f"efficiency @ {latency_s}s sessions", paper,
             f"{flicker_efficiency(latency_s * 1000.0, overhead):.2f}")
        )
    return format_table("Distributed computing (Table 4 / Figure 8)",
                  ["Quantity", "Paper", "Measured"], rows)


def build_report() -> str:
    """The full report as a string."""
    sections = [
        "# Flicker reproduction — experiment report",
        "(paper: McCune et al., EuroSys 2008; all measured values are",
        "deterministic virtual-time results from the simulated platform)",
        rootkit_section(),
        skinit_section(),
        ssh_section(),
        ca_section(),
        distributed_section(),
    ]
    return "\n".join(sections)


def main() -> None:
    print(build_report())


if __name__ == "__main__":
    main()
