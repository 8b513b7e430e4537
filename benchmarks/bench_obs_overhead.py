"""The zero-overhead claim of the observability layer, measured.

Every instrumentation site in the simulation is guarded by a single
``obs is not None`` attribute test, so a platform built without
``observability=True`` must pay (a) *nothing* in virtual time and (b) a
vanishing amount of wall time.  This bench pins both on the Figure 6
module suite — the four application workloads, which between them link
every PAL module:

* **Virtual time** — the enabled and disabled runs of each workload end
  at the *identical* virtual timestamp.  Instrumentation observes the
  clock; it never advances it.
* **Wall time** — the disabled path's entire cost is the guard checks.
  We count the guard evaluations an enabled run actually performs (every
  recorded span, event, and metric sample came through one), price a
  guard with ``timeit``, and assert the total against the measured
  disabled-suite wall time: **< 2%**, with an 8× safety margin on the
  guard count so the bound holds even if instrumentation sites multiply.
"""

import time
import timeit

import pytest

from benchmarks.conftest import print_table
from repro.bench import register
from repro.core import FlickerPlatform
from repro.faults.campaign import DRIVERS

APPS = ("rootkit", "ssh", "ca", "distributed")
SEED = 1022
OVERHEAD_BUDGET = 0.02
GUARD_MARGIN = 8  # assume 8 guard evaluations per recorded artifact


def run_suite(observability, seed=SEED):
    """Run the four Figure 6 workloads; return per-app final virtual
    times and the platforms (for span/metric inspection)."""
    virtual_ms = {}
    platforms = {}
    for app in APPS:
        platform = FlickerPlatform(seed=seed, observability=observability)
        outcome = DRIVERS[app](platform)
        assert outcome == "ok", f"{app} failed: {outcome}"
        virtual_ms[app] = platform.machine.clock.now()
        platforms[app] = platform
    return virtual_ms, platforms


def guard_cost_s():
    """Wall cost of one disabled-path guard (attribute is None test)."""
    number = 200_000
    total = timeit.timeit(
        "if obs is not None:\n    pass", setup="obs = None", number=number)
    return total / number


def run_bench(seed=SEED):
    """Registered entry point: the deterministic half of the zero-overhead
    claim — virtual timelines identical with and without the hub, and
    the artifact counts the wall-time half prices.  The wall-time half
    is :func:`test_disabled_instrumentation_overhead_under_2pct`."""
    disabled_virtual, _ = run_suite(False, seed=seed)
    enabled_virtual, enabled_platforms = run_suite(True, seed=seed)
    artifacts = 0
    for platform in enabled_platforms.values():
        hub = platform.obs
        artifacts += len(hub.spans) + len(hub.events) + len(hub.registry.snapshot())
    return {
        "virtual": {
            "virtual_ms": {app: round(disabled_virtual[app], 6) for app in APPS},
            "virtual_time_identical": enabled_virtual == disabled_virtual,
            "artifacts_recorded": artifacts,
            "guard_evals_charged": artifacts * GUARD_MARGIN,
        },
    }


register(
    "obs_overhead", run_bench, params={"seed": SEED},
    description="Observability layer: disabled-path overhead and "
                "virtual-time neutrality on the Figure 6 suite",
)


def test_disabled_instrumentation_overhead_under_2pct():
    disabled_virtual, _ = run_suite(False)
    enabled_virtual, enabled_platforms = run_suite(True)

    # (a) Virtual time: bit-identical timelines with and without the hub.
    assert enabled_virtual == disabled_virtual

    # (b) Wall time: price the guards the disabled path actually executes.
    start = time.perf_counter()
    run_suite(False)
    disabled_wall_s = time.perf_counter() - start

    artifacts = 0
    for platform in enabled_platforms.values():
        hub = platform.obs
        artifacts += len(hub.spans) + len(hub.events) + len(hub.registry.snapshot())
    guard_evals = artifacts * GUARD_MARGIN
    per_guard_s = guard_cost_s()
    overhead = (guard_evals * per_guard_s) / disabled_wall_s

    print_table(
        "Observability: disabled-path overhead (Figure 6 suite)",
        ["Quantity", "Value"],
        [
            ("recorded artifacts (enabled)", artifacts),
            ("guard evaluations charged", guard_evals),
            ("per-guard cost", f"{per_guard_s * 1e9:.1f} ns"),
            ("disabled suite wall time", f"{disabled_wall_s * 1e3:.1f} ms"),
            ("disabled overhead bound", f"{overhead * 100:.4f} %"),
            ("budget", f"{OVERHEAD_BUDGET * 100:.1f} %"),
        ],
    )

    assert overhead < OVERHEAD_BUDGET


def test_enabled_instrumentation_preserves_results():
    """Enabling the hub changes no application-visible result: the CA
    suite's session timings match a plain platform's to the last float."""
    platforms = (FlickerPlatform(seed=SEED),
                 FlickerPlatform(seed=SEED, observability=True))
    for platform in platforms:
        assert DRIVERS["ca"](platform) == "ok"
    plain, instrumented = (platform.last_session for platform in platforms)
    assert plain.phase_ms == instrumented.phase_ms
    assert plain.total_ms == instrumented.total_ms
    assert plain.outputs == instrumented.outputs


def test_guard_is_cheap_in_absolute_terms():
    """Sanity floor under the 2% claim: one guard costs well under a
    microsecond, so even 10^5 guards cost < 100 ms of wall time."""
    assert guard_cost_s() < 1e-6


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q", "-s"])
