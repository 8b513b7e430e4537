"""The tracer: no effect on virtual outputs, exact restore, consistent
accounting, and metric names that match BENCHMARK.json."""

import json
import re
import sys
import types

import pytest

import repro.crypto.mpi
import repro.crypto.rsa
from benchmarks.perf import run, worker
from benchmarks.perf.trace import PROBES, Tracer, _repro_modules, _resolve
from benchmarks.perf.workloads import WORKLOADS
from repro.sim import DeterministicRNG

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Tiny sizes, so one round of each workload takes well under a second
#: (dist-adversarial needs the full 32 machines its behaviors address).
TINY = {
    "fleet-cold": {"fleet_size": 100, "clients": 2},
    "dist-adversarial": {"units": 4},
    "vtpm-migrate": {"tenants": 1, "sessions": 2},
    "ssh-login": {"clients": 2},
}


def run_tiny(workload, trace):
    return worker.run({"workload": workload, "seed": 5, "seconds": 0,
                       "trace": trace, "setup_only": False,
                       "sizes": TINY[workload], "chrome": None})


@pytest.fixture(scope="module")
def runs():
    return {name: (run_tiny(name, False), run_tiny(name, True)) for name in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_leaves_virtual_outputs_unchanged(runs, workload):
    untraced, traced = runs[workload]
    assert untraced["failed"] == traced["failed"] == 0
    assert traced["virtual_sha1"] == untraced["virtual_sha1"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_add_up_to_traced_wall_time(runs, workload):
    layers = runs[workload][1]["layers"]
    assert layers["other.self_s"] >= 0
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(runs[workload][1]["timed_s"], rel=0.02)


def bindings():
    """Every module-level and probed-class binding, by identity."""
    out = {(module.__name__, attr): value
           for module in _repro_modules() for attr, value in vars(module).items()}
    for probe in PROBES:
        for target in probe.targets:
            owner, name, original = _resolve(target)
            out[(owner, name)] = owner.__dict__[name] if isinstance(owner, type) else original
    return out


def test_uninstall_restores_every_binding():
    original = repro.crypto.mpi.mod_pow
    before = bindings()
    tracer = Tracer().install()
    try:
        assert repro.crypto.rsa.mod_pow is repro.crypto.mpi.mod_pow
        assert repro.crypto.rsa.mod_pow is not original
        assert repro.crypto.rsa.mod_pow.__wrapped__ is original
        # A module imported while tracing copies the wrapper; uninstall
        # must find that binding too.
        late = types.ModuleType("repro._perf_late_import")
        late.mod_pow = repro.crypto.mpi.mod_pow
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
    try:
        assert late.mod_pow is original
        assert repro.crypto.rsa.mod_pow is original
        after = bindings()
        del after[(late.__name__, "mod_pow")]
        changed = [key for key in before if after.get(key) is not before[key]]
        assert changed == []
    finally:
        del sys.modules[late.__name__]


def test_excluded_work_leaves_no_record():
    tracer = Tracer().install()
    try:
        repro.crypto.mpi.mod_pow(3, 5, 7)
        with tracer.excluded():
            repro.crypto.mpi.mod_pow(3, 5, 7)
            repro.crypto.mpi.is_probable_prime(7, DeterministicRNG(1))
    finally:
        tracer.uninstall()
    assert tracer.stats["crypto.modexp"].calls == 1
    assert tracer.stats["crypto.mr_test"].calls == 0
    assert tracer.top_s == tracer.stats["crypto.modexp"].self_s


def test_ssh_login_rounds_repeat_the_same_work():
    # Each round starts from a fresh platform, so its event trace, which
    # every login scans, does not grow with the number of rounds run.
    workload = WORKLOADS["ssh-login"](seed=5, clients=2, logins=1)
    workload.setup()
    first = workload.run_round(0)
    workload.between_rounds()
    second = workload.run_round(1)
    assert first.failed == second.failed == 0
    assert second.virtual == first.virtual
    assert second.counters == first.counters


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_match_benchmark_json(runs):
    emitted = {name: run.layer_unit(name)
               for name in [*runs["vtpm-migrate"][1]["layers"], "trace.overhead_frac"]}
    for _, traced in runs.values():
        assert set(traced["layers"]) | {"trace.overhead_frac"} == set(emitted)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert emitted == declared
    assert dict(run.END_TO_END) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in [*declared, *dict(run.END_TO_END), *WORKLOADS]:
        assert NAME.fullmatch(name), name
