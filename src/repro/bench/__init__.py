"""Unified benchmark framework.

The repository's benchmarks live in ``benchmarks/bench_*.py``.  Each
module may call :func:`register` at import time to expose a *runnable*
benchmark — a plain function returning JSON-friendly metrics — to the
unified runner (``python -m repro.tools.bench``).  The runner

* discovers every registered benchmark by importing the ``benchmarks``
  package,
* runs each with its pinned parameters (``--quick`` selects the smaller
  parameter set committed baselines are generated with),
* emits one schema-versioned ``BENCH_<name>.json`` per benchmark whose
  ``virtual`` section is byte-deterministic (same seed, same bytes on
  any host) while provenance lives under ``meta``,
* and, with ``--compare BASELINE``, exits non-zero when a virtual
  metric drifts *at all*.

The simulator's wall time is measured elsewhere: ``benchmarks/perf``
runs two commits in alternating fresh processes on one host and gives
each end-to-end metric a paired verdict.

>>> from repro.bench import Benchmark, register, registered
>>> bench = register("doctest-demo", lambda trials: {"virtual": {"t": trials}},
...                  params={"trials": 4}, quick_params={"trials": 2})
>>> bench.run(quick=True)["virtual"]
{'t': 2}
>>> "doctest-demo" in registered()
True
>>> from repro.bench.registry import unregister
>>> unregister("doctest-demo")
"""

from repro.bench.compare import CompareFinding, compare_results, strip_volatile
from repro.bench.registry import (
    Benchmark,
    all_benchmarks,
    discover,
    get_benchmark,
    register,
    registered,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    build_result,
    result_filename,
    result_json,
    validate_result,
)

__all__ = [
    "Benchmark",
    "CompareFinding",
    "SCHEMA_VERSION",
    "SchemaError",
    "all_benchmarks",
    "build_result",
    "compare_results",
    "discover",
    "get_benchmark",
    "register",
    "registered",
    "result_filename",
    "result_json",
    "strip_volatile",
    "validate_result",
]
