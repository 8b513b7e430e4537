"""How the benchmark measures: in fresh processes, for a fixed time.

The keygen memo in ``repro.crypto.rsa`` is process-global: a workload
measured in a process that already built the same machines would find
their keys memoized, search for fewer primes and look faster.  Measured
through ``run.measure``, a workload's prime-search count and virtual
digest are the same alone and after other workloads ran with the same
seed.
"""

import pytest

from benchmarks.perf import run

SIZES = {
    "fleet-cold": {"fleet_size": 100, "clients": 2},
    "vtpm-migrate": {"tenants": 1, "sessions": 2},
}


def measure(workload):
    record = run.measure(workload, seed=11, seconds=0, trace=True,
                         sizes=SIZES[workload])
    assert record["correct"]
    return record["layers"]["crypto.prime.calls"], record["virtual_sha1"]


def test_counts_and_digests_do_not_depend_on_what_ran_before():
    first = {name: measure(name) for name in SIZES}
    again = {name: measure(name) for name in SIZES}
    assert first == again
    assert all(calls > 0 for calls, _ in first.values())


def test_run_length_comes_from_benchmark_json(capsys):
    budget = run.run_seconds()
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "ssh-login", "--seconds", str(budget + 1)])
    assert exc.value.code == 2
    assert "run_seconds" in capsys.readouterr().err
