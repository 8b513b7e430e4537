"""Figure 8 — Flicker vs replication efficiency.

The paper plots efficiency (useful-work fraction) against user latency
(1–10 s) for Flicker and for 3/5/7-way replication.  Replication is a
constant 1/k; Flicker's curve rises as the fixed per-session overhead
(SKINIT + Unseal ≈ 0.91 s) amortizes.  The headline claim: "a two second
user latency allows a more efficient distributed application than
replicating to three or more machines."
"""

import pytest

from benchmarks.conftest import print_table
from repro.apps.distributed import (
    BOINCClient,
    FactoringWorkUnit,
    ReplicationScheme,
    flicker_efficiency,
)
from repro.core import FlickerPlatform

LATENCIES_S = tuple(range(1, 11))


def measure_flicker_curve():
    """Measure actual sessions at each user latency and compute the
    efficiency as useful work / total session time."""
    platform = FlickerPlatform(seed=888)
    client = BOINCClient(platform)
    curve = {}
    overhead_sample = None
    for latency_s in LATENCIES_S:
        unit = FactoringWorkUnit(unit_id=latency_s, n=15015, start=2, end=4)
        progress = client.start_unit(unit)
        clock = platform.machine.clock
        # Pick the work slice so the *total* session equals the target
        # user latency: work = latency - overhead (measured on the fly).
        if overhead_sample is None:
            before = clock.now()
            progress, _ = client.work_slice(progress, slice_ms=1000.0)
            overhead_sample = (clock.now() - before) - 1000.0
            progress = client.start_unit(
                FactoringWorkUnit(unit_id=100 + latency_s, n=15015, start=2, end=4)
            )
        work_ms = max(0.0, latency_s * 1000.0 - overhead_sample)
        before = clock.now()
        client.work_slice(progress, slice_ms=work_ms)
        total = clock.now() - before
        curve[latency_s] = work_ms / total
    return curve, overhead_sample


def test_fig8_flicker_vs_replication():
    curve, overhead_ms = measure_flicker_curve()
    model = {s: flicker_efficiency(s * 1000.0, overhead_ms) for s in LATENCIES_S}
    rows = [
        (
            s,
            f"{curve[s]:.2f}",
            f"{model[s]:.2f}",
            f"{ReplicationScheme(3).efficiency:.2f}",
            f"{ReplicationScheme(5).efficiency:.2f}",
            f"{ReplicationScheme(7).efficiency:.2f}",
        )
        for s in LATENCIES_S
    ]
    print_table(
        "Figure 8: efficiency vs user latency (s)",
        ["Latency", "Flicker (measured)", "Flicker (model)", "3-way", "5-way", "7-way"],
        rows,
    )

    # Shape assertions:
    # 1. Flicker's curve rises monotonically and concavely toward 1.
    values = [curve[s] for s in LATENCIES_S]
    assert values == sorted(values)
    assert values[-1] > 0.89
    # 2. Replication lines are constant; Flicker crosses 3-way below 2 s.
    assert curve[2] > ReplicationScheme(3).efficiency
    assert curve[1] < ReplicationScheme(3).efficiency
    # 3. By 2 s, Flicker beats even 7-way... (1/7 ≈ 0.14 < 0.54)
    assert curve[2] > ReplicationScheme(7).efficiency
    # 4. The measured curve matches the closed-form model.
    for s in LATENCIES_S:
        assert curve[s] == pytest.approx(model[s], abs=0.02)


def test_fig8_crossover_points():
    """Locate the exact crossover latencies against each replication level
    (the paper's qualitative claim, made quantitative)."""
    overhead_ms = 912.6
    # Solve (L - o)/L = 1/k  →  L = o * k / (k - 1).
    points = {k: overhead_ms * k / (k - 1) / 1000.0 for k in (3, 5, 7)}
    print_table(
        "Figure 8: crossover latencies",
        ["Replication", "Flicker wins beyond (s)"],
        [(f"{k}-way", f"{latency:.2f}") for k, latency in points.items()],
    )
    assert points[3] < 2.0  # the paper's two-second claim
    assert points[7] < points[5] < points[3]
