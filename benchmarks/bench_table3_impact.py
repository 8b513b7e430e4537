"""Table 3 — impact of periodic rootkit detection on a kernel build.

Paper values (build of Linux 2.6.20; mm:ss)::

    Detection period   Build time   Std dev (s)
    none               7:22.6       2.6
    5:00               7:21.4       1.1
    3:00               7:21.4       0.9
    2:00               7:21.8       1.0
    1:00               7:21.9       1.1
    0:30               7:22.6       1.7

The paper's conclusion: even a 30-second detection period has negligible
impact (the apparent speed-ups are experimental noise).
"""

from benchmarks.conftest import print_table
from repro.apps.rootkit_detector import simulate_kernel_build
from repro.core import FlickerPlatform

PAPER_ROWS = [
    (None, "7:22.6", 2.6),
    (300.0, "7:21.4", 1.1),
    (180.0, "7:21.4", 0.9),
    (120.0, "7:21.8", 1.0),
    (60.0, "7:21.9", 1.1),
    (30.0, "7:22.6", 1.7),
]


def fmt_mmss(ms: float) -> str:
    total_s = ms / 1000.0
    return f"{int(total_s // 60)}:{total_s % 60:04.1f}"


def run_sweep():
    platform = FlickerPlatform(seed=333)
    results = []
    for period_s, paper_time, paper_std in PAPER_ROWS:
        mean_ms, std_ms = simulate_kernel_build(platform, period_s)
        results.append((period_s, paper_time, paper_std, mean_ms, std_ms))
    return results


def test_table3_build_impact():
    results = run_sweep()
    print_table(
        "Table 3: Impact of the Rootkit Detector on a kernel build",
        ["Period", "Paper [m:s]", "Paper std (s)", "Measured [m:s]", "Std (s)"],
        [
            (
                "none" if period is None else fmt_mmss(period * 1000.0),
                paper_time,
                f"{paper_std:.1f}",
                fmt_mmss(mean_ms),
                f"{std_ms / 1000.0:.1f}",
            )
            for period, paper_time, paper_std, mean_ms, std_ms in results
        ],
    )
    baseline = results[0][3]
    worst = max(mean for _, _, _, mean, _ in results)

    # Shape: the paper's finding — detection impact is lost in the noise.
    # Even at a 30 s period the slowdown stays under 0.5 %.
    for period, _, _, mean_ms, _ in results[1:]:
        assert (mean_ms - baseline) / baseline < 0.005, period
    # And the measurement noise is of the same order as the paper's.
    for _, _, _, _, std_ms in results:
        assert std_ms < 4000.0
