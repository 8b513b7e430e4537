"""The benchmark registry and its discovery mechanism.

A benchmark is a plain function plus two pinned parameter sets::

    def run(*, sizes=(1, 4, 16)):
        ...
        return {"virtual": {...}}

    register("fleet", run,
             params={"sizes": (1, 4, 16, 64)},
             quick_params={"sizes": (1, 4, 16)})

The function must return a dict whose only section, ``virtual``, holds
deterministic, JSON-serializable metrics: the same parameters and seeds
produce the same values on every host.  Wall time is not a benchmark
result here; ``benchmarks/perf`` measures it.  Seeds belong in the
parameter set so the result file records them.

Registration is import-time: :func:`discover` imports every
``benchmarks/bench_*.py`` module once, and whatever registered becomes
runnable.  Modules that only define pytest tests simply do not register
and are ignored by the runner.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Name of the package scanned by :func:`discover`.
BENCHMARKS_PACKAGE = "benchmarks"

#: Module-name prefix a benchmark module must carry to be imported.
MODULE_PREFIX = "bench_"

_REGISTRY: Dict[str, "Benchmark"] = {}


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark: a callable plus pinned parameters."""

    name: str
    fn: Callable[..., Dict]
    #: Full-fidelity parameter set (local deep runs).
    params: Dict = field(default_factory=dict)
    #: Smaller parameter set used by ``--quick`` and the committed
    #: baselines; defaults to ``params`` when not given.
    quick_params: Optional[Dict] = None
    description: str = ""

    def parameters(self, quick: bool = False) -> Dict:
        """The parameter set selected by ``quick``."""
        if quick and self.quick_params is not None:
            return dict(self.quick_params)
        return dict(self.params)

    def run(self, quick: bool = False) -> Dict:
        """Execute the benchmark; returns its raw metrics dict."""
        metrics = self.fn(**self.parameters(quick))
        if not isinstance(metrics, dict) or set(metrics) != {"virtual"}:
            got = sorted(metrics) if isinstance(metrics, dict) else type(metrics).__name__
            raise TypeError(
                f"benchmark {self.name!r} must return a dict with only a "
                f"'virtual' section, got {got}")
        return metrics


def register(
    name: str,
    fn: Callable[..., Dict],
    params: Optional[Dict] = None,
    quick_params: Optional[Dict] = None,
    description: str = "",
) -> Benchmark:
    """Register ``fn`` as the benchmark ``name``; returns the record.

    Raises ``ValueError`` on duplicate names — two modules claiming the
    same benchmark is always a bug.
    """
    if name in _REGISTRY:
        raise ValueError(f"benchmark {name!r} is already registered")
    bench = Benchmark(name=name, fn=fn, params=dict(params or {}),
                      quick_params=None if quick_params is None else dict(quick_params),
                      description=description)
    _REGISTRY[name] = bench
    return bench


def unregister(name: str) -> None:
    """Drop a registration (tests use this to clean up fixtures)."""
    _REGISTRY.pop(name, None)


def registered() -> List[str]:
    """Sorted names of every registered benchmark."""
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    """Look up one benchmark by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no benchmark {name!r}; registered: {registered()}") from None


def all_benchmarks() -> List[Benchmark]:
    """Every registered benchmark, sorted by name."""
    return [_REGISTRY[name] for name in registered()]


def discover(package: str = BENCHMARKS_PACKAGE) -> List[str]:
    """Import every ``bench_*`` module of ``package`` so registrations run.

    Returns the imported module names.  Modules already imported are not
    re-imported (registration happens exactly once per process).
    """
    pkg = importlib.import_module(package)
    imported = []
    for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda i: i.name):
        if info.name.startswith(MODULE_PREFIX):
            importlib.import_module(f"{package}.{info.name}")
            imported.append(info.name)
    return imported
