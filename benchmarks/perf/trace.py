"""Per-layer wall-time tracing from outside the program.

:class:`Tracer` wraps public layer functions and methods (the
:data:`PROBES`) for the duration of a traced run.  A wrapper replaces
the original object in *every* ``repro`` module namespace bound to it
(``repro.crypto.rsa.mod_pow`` as well as ``repro.crypto.mpi.mod_pow``)
and in every class that defines the method; :meth:`Tracer.uninstall`
puts the originals back.  Nothing inside ``src/`` changes.

Each wrapper counts calls and accumulates inclusive and *self* time
(inclusive time minus the time of wrapped callees) on an in-memory
stack.  Probes at session level and coarser also record spans — name,
start, duration, parent span and the op id the workload set — which
:meth:`Tracer.chrome_trace` exports as Chrome trace JSON.  High-frequency
leaves (modexp, RNG bytes, hashing, trace scans) are aggregates only.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Probe:
    """One per-layer metric and the callables it wraps.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``.
    ``span`` records a span per call.  ``hook(tracer, result)`` runs
    after each successful call to update extra counters.
    """

    metric: str
    targets: Tuple[str, ...]
    span: bool = False
    hook: Optional[Callable[["Tracer", Any], None]] = None


def _count_retries(tracer: "Tracer", result) -> None:
    tracer.extra["core.session.retries"] += result.retries


def _count_failed_verify(tracer: "Tracer", result) -> None:
    if not result.ok:
        tracer.extra["core.verify.failed"] += 1


PROBES: Tuple[Probe, ...] = (
    # crypto
    Probe("crypto.keygen", ("repro.crypto.rsa:generate_rsa_keypair",)),
    Probe("crypto.prime", ("repro.crypto.mpi:generate_prime",)),
    Probe("crypto.mr_test", ("repro.crypto.mpi:is_probable_prime",)),
    Probe("crypto.modexp", ("repro.crypto.mpi:mod_pow",)),
    Probe("crypto.md5crypt", ("repro.crypto.md5crypt:md5crypt",)),
    Probe("crypto.sha1", ("repro.crypto.sha1:sha1",)),
    Probe("crypto.sha512", ("repro.crypto.sha512:sha512",)),
    Probe("crypto.aes", ("repro.crypto.aes:AES128.__init__",
                         "repro.crypto.aes:AES128.encrypt_cbc",
                         "repro.crypto.aes:AES128.decrypt_cbc")),
    Probe("crypto.hmac", ("repro.crypto.hmac:hmac_sha1",)),
    # sim
    Probe("sim.rng.bytes", ("repro.sim.rng:DeterministicRNG.bytes",)),
    Probe("sim.sched.run", ("repro.sim.sched.events:EventScheduler.run",), span=True),
    Probe("sim.trace.events", ("repro.sim.trace:EventTrace.events",)),
    # core
    Probe("core.session", ("repro.core.session:FlickerPlatform.execute_image",),
          span=True, hook=_count_retries),
    Probe("core.pal.code_bytes", ("repro.core.pal:PAL.code_bytes",)),
    Probe("core.slb.build", ("repro.core.slb:build_slb",), span=True),
    Probe("core.template.clone", ("repro.core.template:PlatformTemplate.clone",),
          span=True),
    Probe("core.attest", ("repro.core.session:FlickerPlatform.attest",), span=True),
    Probe("core.verify", ("repro.core.attestation:FlickerVerifier.verify",),
          span=True, hook=_count_failed_verify),
    # tpm: the locality-bound command interface software holds
    Probe("tpm.seal", ("repro.tpm.tpm:TPMInterface.seal",), span=True),
    Probe("tpm.unseal", ("repro.tpm.tpm:TPMInterface.unseal",), span=True),
    Probe("tpm.quote", ("repro.tpm.tpm:TPMInterface.quote",), span=True),
    Probe("tpm.pcr_extend", ("repro.tpm.tpm:TPMInterface.pcr_extend",), span=True),
    Probe("tpm.get_random", ("repro.tpm.tpm:TPMInterface.get_random",), span=True),
    # hw, osim
    Probe("hw.skinit", ("repro.hw.skinit:skinit",), span=True),
    Probe("osim.kernel_init", ("repro.osim.kernel:UntrustedKernel.__init__",), span=True),
    # vtpm
    Probe("vtpm.create_tenant", ("repro.vtpm.mux:VTPMMultiplexer.create_tenant",),
          span=True),
    Probe("vtpm.attest", ("repro.vtpm.mux:VTPMMultiplexer.attest",), span=True),
    Probe("vtpm.record_session", ("repro.vtpm.mux:VTPMMultiplexer.record_session",),
          span=True),
    Probe("vtpm.export_tenant", ("repro.vtpm.mux:VTPMMultiplexer.export_tenant",),
          span=True),
    Probe("vtpm.import_tenant", ("repro.vtpm.mux:VTPMMultiplexer.import_tenant",),
          span=True),
    Probe("vtpm.increment_counter", ("repro.vtpm.instance:VirtualTPM.increment_counter",),
          span=True),
)

#: Extra counters the probe hooks maintain.
EXTRA_COUNTERS = ("core.session.retries", "core.verify.failed")


def _resolve(target: str):
    """``(owner, attribute name, original object)`` for a target; the
    owner is the module for a function and the class for a method."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs the probes, aggregates per-layer time, records spans.

    Use ``install()`` before the traced code, ``reset()`` where the
    measured phase begins, ``excluded()`` around untimed work inside it
    and ``uninstall()`` after it; then read ``metrics(wall_s)`` with the
    measured phase's wall time.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {p.metric: _Stat() for p in PROBES}
        self.extra: Dict[str, float] = dict.fromkeys(EXTRA_COUNTERS, 0)
        #: Child-time accumulators of the wrappers currently running.
        self._stack: List[float] = []
        #: Open span indices, innermost last.
        self._open: List[int] = []
        #: [name, op, start_s, duration_s, parent index] per span.
        self.spans: List[list] = []
        #: Time inside outermost wrappers since the last reset.
        self.top_s = 0.0
        self.op: Optional[int] = None
        self._ops = 0
        self._epoch = time.perf_counter()
        #: (owner, name, original) of every binding this tracer replaced.
        self._patched: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Any] = {}

    # -- op ids -----------------------------------------------------------------

    def begin_op(self) -> None:
        self._ops += 1
        self.op = self._ops

    def end_op(self) -> None:
        self.op = None

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        stat = self.stats[probe.metric]
        stack = self._stack
        perf = time.perf_counter
        hook = probe.hook
        tracer = self

        span = probe.span
        spans = self.spans
        opened = self._open
        name = probe.metric

        def wrapper(*args, **kwargs):
            if span:
                record = [name, tracer.op, 0.0, 0.0, opened[-1] if opened else None]
                opened.append(len(spans))
                spans.append(record)
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_s += elapsed
                if span:
                    opened.pop()
                    record[2] = start - tracer._epoch
                    record[3] = elapsed
            if hook is not None:
                hook(tracer, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        """Replace every binding of every probe target with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = None
        for probe in PROBES:
            for target in probe.targets:
                owner, name, original = _resolve(target)
                wrapper = self._wrap(original, probe)
                self._wrappers[id(wrapper)] = original
                if isinstance(owner, type):
                    for cls in _subclasses(owner):
                        if cls.__dict__.get(name) is original:
                            setattr(cls, name, wrapper)
                            self._patched.append((cls, name, original))
                    continue
                if modules is None:
                    modules = _repro_modules()
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        """Put every original back, including bindings that modules
        imported after :meth:`install` copied from a patched one."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._wrappers.get(id(value))
                if original is not None and getattr(value, "__wrapped__", None) is original:
                    setattr(module, attr, original)
        self._patched.clear()

    # -- measurement window -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the measured phase starts)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.self_s = 0.0
        for key in self.extra:
            self.extra[key] = 0
        self.spans.clear()
        self.top_s = 0.0
        self._epoch = time.perf_counter()

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Drop whatever the probes record inside the block (untimed
        work in the middle of the measured phase)."""
        stats = {metric: (s.calls, s.self_s) for metric, s in self.stats.items()}
        extra, top_s, spans = dict(self.extra), self.top_s, len(self.spans)
        try:
            yield
        finally:
            for metric, (calls, self_s) in stats.items():
                self.stats[metric].calls = calls
                self.stats[metric].self_s = self_s
            self.extra.update(extra)
            self.top_s = top_s
            del self.spans[spans:]

    # -- results ----------------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """``<probe>.calls`` and ``<probe>.self_s`` for every probe, the
        hook counters, session latency percentiles, the prime-search
        waste ratio and ``other.self_s``: the part of ``wall_s``, the
        measured phase's wall time, spent outside every wrapper."""
        out: Dict[str, float] = {}
        for metric, stat in self.stats.items():
            out[f"{metric}.calls"] = stat.calls
            out[f"{metric}.self_s"] = stat.self_s
        out.update(self.extra)
        sessions = [s[3] * 1e3 for s in self.spans if s[0] == "core.session"]
        out["core.session.wall_ms_p50"] = percentile(sessions, 50)
        out["core.session.wall_ms_p95"] = percentile(sessions, 95)
        tests = out["crypto.mr_test.calls"]
        out["crypto.prime.useful_ratio"] = out["crypto.prime.calls"] / tests if tests else 0.0
        out["other.self_s"] = wall_s - self.top_s
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome/Perfetto trace document."""
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": start * 1e6, "dur": duration * 1e6, "pid": 1, "tid": 1,
            "args": {"op": op, "parent": parent, "span": index},
        } for index, (name, op, start, duration, parent) in enumerate(self.spans)]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(samples: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); 0.0 with no samples."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
