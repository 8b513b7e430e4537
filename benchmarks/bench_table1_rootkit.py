"""Table 1 — breakdown of rootkit-detector overhead.

Paper values (Broadcom TPM, HP dc5750)::

    SKINIT               15.4 ms
    PCR Extend            1.2 ms
    Hash of Kernel       22.0 ms
    TPM Quote           972.7 ms
    Total Query Latency 1022.7 ms
"""

import pytest

from benchmarks.conftest import print_table
from repro.apps.rootkit_detector import RemoteAdministrator
from repro.bench import register
from repro.core import FlickerPlatform

PAPER = {
    "skinit_ms": 15.4,
    "extend_ms": 1.2,
    "kernel_hash_ms": 22.0,
    "quote_ms": 972.7,
    "total_ms": 1022.7,
}


def run_query(platform: FlickerPlatform):
    admin = RemoteAdministrator(platform)
    report = admin.run_detection_query()
    trace = platform.machine.trace
    session = platform.last_session
    hash_events = trace.events(
        kind="hash", predicate=lambda e: e.detail["label"] == "kernel-measure")
    measured = {
        "skinit_ms": session.phase_ms["skinit"],
        "extend_ms": platform.machine.profile.tpm.extend_ms,
        "kernel_hash_ms": platform.machine.profile.host.sha1_ms_per_kb
        * hash_events[-1].detail["nbytes"] / 1024.0,
        "quote_ms": platform.machine.profile.tpm.quote_ms,
        "total_ms": report.query_latency_ms,
    }
    return report, measured


def run_bench(seed=1022):
    """Registered entry point: the Table 1 per-operation breakdown as
    deterministic virtual-time metrics."""
    platform = FlickerPlatform(seed=seed)
    report, measured = run_query(platform)
    return {
        "virtual": {
            "paper_ms": PAPER,
            "measured_ms": {k: round(v, 6) for k, v in measured.items()},
            "kernel_clean": report.kernel_clean,
            "attestation_valid": report.attestation_valid,
        },
    }


register(
    "table1_rootkit", run_bench, params={"seed": 1022},
    description="Table 1: rootkit-detector query latency breakdown",
)


def test_table1_rootkit_detector_breakdown(platform):
    report, measured = run_query(platform)

    # The detector used an *unoptimized* SLB in Table 1 (the optimization
    # is introduced afterwards in §7.2); our detector SLB is sized so
    # SKINIT lands in the same regime either way.
    rows = [
        (name, f"{PAPER[key]:.1f}", f"{value:.1f}")
        for (name, key, value) in (
            ("SKINIT", "skinit_ms", measured["skinit_ms"]),
            ("PCR Extend", "extend_ms", measured["extend_ms"]),
            ("Hash of Kernel", "kernel_hash_ms", measured["kernel_hash_ms"]),
            ("TPM Quote", "quote_ms", measured["quote_ms"]),
            ("Total Query Latency", "total_ms", measured["total_ms"]),
        )
    ]
    print_table("Table 1: Rootkit Detector Overhead",
                ["Operation", "Paper (ms)", "Measured (ms)"], rows)

    # Shape assertions: the TPM Quote dominates; the end-to-end latency is
    # ~1 s; the hash cost matches the kernel's modelled size.
    assert report.kernel_clean
    assert measured["quote_ms"] > 0.9 * sum(
        v for k, v in measured.items() if k not in ("total_ms", "quote_ms")
    )
    assert measured["total_ms"] == pytest.approx(PAPER["total_ms"], rel=0.03)
    assert measured["kernel_hash_ms"] == pytest.approx(PAPER["kernel_hash_ms"], abs=0.5)
