"""§7.4.2 — certificate-authority signing latency.

Paper: over 100 trials, signing one certificate request averaged 906.2 ms,
dominated by the TPM Unseal; the RSA signature itself costs ≈4.7 ms.
"""

import pytest

from benchmarks.conftest import print_table
from repro.apps.ca import CertificateAuthority, CertificateSigningRequest
from repro.core import FlickerPlatform
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import INFINEON_PROFILE

PAPER = {"total_ms": 906.2, "sign_ms": 4.7}
TRIALS = 10


def run_trials(profile=None):
    platform = (
        FlickerPlatform(seed=4242, observability=True)
        if profile is None
        else FlickerPlatform(profile=profile, seed=4242, observability=True)
    )
    ca = CertificateAuthority(platform)
    ca.initialize()
    keys = generate_rsa_keypair(512, DeterministicRNG(4243))
    clock = platform.machine.clock
    latencies = []
    for i in range(TRIALS):
        csr = CertificateSigningRequest(f"host{i}.example.com", keys.public)
        before = clock.now()
        cert = ca.sign(csr)
        latencies.append(clock.now() - before)
        assert cert is not None and cert.verify(ca.public_key)
    sign_events = [
        e.detail["ms"]
        for e in platform.machine.trace.events(kind="work")
        if e.detail["label"] == "rsa-sign"
    ]
    mean = sum(latencies) / len(latencies)
    return mean, sign_events[-1], platform


def test_ca_signing_latency():
    mean, sign_ms, platform = run_trials()
    session = platform.last_session
    print_table(
        "§7.4.2: CA certificate signing",
        ["Quantity", "Paper (ms)", "Measured (ms)"],
        [
            ("total per CSR", PAPER["total_ms"], f"{mean:.1f}"),
            ("RSA signature", PAPER["sign_ms"], f"{sign_ms:.1f}"),
            ("TPM Unseal share", "~898", f"{session.tpm_ms['unseal']:.1f}"),
        ],
    )

    assert mean == pytest.approx(PAPER["total_ms"], rel=0.10)
    assert sign_ms == pytest.approx(PAPER["sign_ms"], abs=0.5)
    # Shape: the Unseal dominates; the signature is noise by comparison.
    assert session.tpm_ms["unseal"] > 100 * sign_ms


def test_ca_signing_latency_infineon_ablation():
    """Ablation: the faster TPM halves the signing latency — confirming
    the bottleneck attribution."""
    mean, _, _ = run_trials(profile=INFINEON_PROFILE)
    print_table(
        "§7.4.2 ablation: CA signing with an Infineon TPM",
        ["TPM", "Total per CSR (ms)"],
        [("Broadcom (paper)", f"{PAPER['total_ms']:.1f}"), ("Infineon", f"{mean:.1f}")],
    )
    assert mean < 0.55 * PAPER["total_ms"]
