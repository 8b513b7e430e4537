"""Determinism lints: keep every output byte-reproducible.

Everything this repo compares — fault-campaign reports, fleet traces,
bench baselines, exporter output — is compared **byte-for-byte**.  One
``time.time()`` in a report writer or one iteration over an unordered
``set`` feeding an exporter breaks every committed baseline at once.
These rules make that class of regression a lint error instead of a
2 a.m. CI bisect:

* **DET001** — wall-clock reads (``time.time()``, ``datetime.now()``,
  ``perf_counter()``, …).  Virtual time comes from
  :class:`repro.sim.clock.VirtualClock`; wall time is allowed only in
  the benchmark harness, which explicitly separates wall metrics from
  the byte-compared virtual ones.
* **DET002** — ambient entropy (``os.urandom``, the module-level
  ``random.*`` functions, ``uuid.uuid4``, ``secrets.*``).  Randomness
  must flow from a seed: :class:`repro.sim.rng.DeterministicRNG` or
  :class:`repro.crypto.drbg.HashDRBG`.
* **DET003** — iteration over unordered sets in exporter/report-writer
  modules.  Sets iterate in hash order, which varies across runs and
  interpreter versions; wrap the iterable in ``sorted()``.
* **DET004** — ``id()``-based sort keys.  ``id()`` is an address:
  different every run, so the "sorted" order is not an order at all.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterable

from repro.analysis.astutil import dotted_name, suffix_hit
from repro.analysis.engine import Finding, Rule, SourceFile, register

#: Modules allowed to touch entropy/clock primitives: the seeded DRBG
#: and RNG wrap them (behind fixed seeds), and the bench harness
#: measures wall time on purpose (wall metrics are never byte-compared).
EXEMPT_MODULE_GLOBS = (
    "repro.crypto.drbg",
    "repro.sim.rng",
    "repro.bench.*",
    "repro.tools.bench",
)

#: Call suffixes that read the wall clock.
WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Calls that draw ambient (unseeded) entropy.
ENTROPY_NAMES = (
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.randbits",
    "secrets.choice",
)

#: Module-level ``random.*`` functions (the shared, unseeded global RNG).
GLOBAL_RANDOM_FUNCS = (
    "random.random",
    "random.randint",
    "random.randrange",
    "random.randbytes",
    "random.getrandbits",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.uniform",
    "random.gauss",
)

#: Modules whose output is byte-compared: exporters and report writers.
EXPORTER_MODULE_GLOBS = (
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.tools.*",
    "repro.faults.campaign",
    "repro.faults.plan",
    "repro.bench.*",
    "repro.core.fleet",
)


def _module_matches(module: str, globs: Iterable[str]) -> bool:
    return any(fnmatch.fnmatchcase(module, glob) for glob in globs)


@register
class WallClockRule(Rule):
    """No wall-clock reads outside the benchmark harness.

    All timing in the simulation is virtual
    (:class:`repro.sim.clock.VirtualClock`), which is what makes
    reports, traces and campaign output byte-identical across runs and
    machines.  A single ``time.time()`` or ``datetime.now()`` in a code
    path that feeds a report invalidates every committed baseline.

    Exempt: ``repro.bench.*`` / ``repro.tools.bench`` (wall metrics are
    measured on purpose and never byte-compared) and the seeded entropy
    wrappers.  If a rare new call site is legitimate, suppress it with
    ``# repro: noqa[DET001]`` and say why in a comment.
    """

    id = "DET001"
    title = "wall-clock read in deterministic code"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if _module_matches(source.module, EXEMPT_MODULE_GLOBS):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                hit = suffix_hit(
                    dotted_name(node.func), WALL_CLOCK_SUFFIXES
                )
                if hit:
                    yield self.finding(
                        source, node.lineno,
                        f"wall-clock call '{hit}()' breaks byte-identical "
                        "reproducibility; use the VirtualClock",
                    )


@register
class AmbientEntropyRule(Rule):
    """No unseeded randomness outside the seeded wrappers.

    Sealed blobs, nonces, key material and fault plans must all derive
    from explicit seeds so that every run — and every machine in CI —
    produces identical bytes.  ``os.urandom``, ``uuid.uuid4``,
    ``secrets.*`` and the module-level ``random.*`` functions (the
    process-global, time-seeded RNG) all smuggle in ambient entropy.

    Draw randomness from :class:`repro.sim.rng.DeterministicRNG` or
    :class:`repro.crypto.drbg.HashDRBG` instead, seeded from the
    configuration that identifies the run.  ``random.Random(seed)`` is
    fine; bare ``random.Random()`` is not.
    """

    id = "DET002"
    title = "ambient entropy in deterministic code"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if _module_matches(source.module, EXEMPT_MODULE_GLOBS):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            hit = suffix_hit(name, ENTROPY_NAMES + GLOBAL_RANDOM_FUNCS)
            if hit:
                yield self.finding(
                    source, node.lineno,
                    f"'{hit}()' draws ambient entropy; use a seeded "
                    "DeterministicRNG/HashDRBG",
                )
            elif (
                suffix_hit(name, ("random.Random", "random.SystemRandom"))
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    source, node.lineno,
                    f"'{name}()' without a seed falls back to OS entropy; "
                    "pass an explicit seed",
                )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    """Exporters and report writers must not iterate over bare sets.

    A ``set`` iterates in hash order — which depends on interpreter
    version, platform and (for str keys in general Python builds) hash
    randomization — so feeding one into a report writer or exporter
    produces different bytes on different runs.  Dicts are
    insertion-ordered and are fine; sets must pass through ``sorted()``
    first.

    The rule fires only in modules whose output is byte-compared (the
    exporters, report writers and the fleet/campaign drivers) and only
    on direct iteration: ``for``-loops, comprehensions, and ``join``/
    ``list``/``tuple`` over a set literal, ``set(...)`` call or set
    comprehension.
    """

    id = "DET003"
    title = "unordered set iteration feeds byte-compared output"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if not _module_matches(source.module, EXPORTER_MODULE_GLOBS):
            return
        for node in ast.walk(source.tree):
            candidates = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                candidates.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                candidates.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                is_join = isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                if (name in ("list", "tuple") or is_join) and node.args:
                    candidates.append(node.args[0])
            for candidate in candidates:
                if _is_set_expr(candidate):
                    yield self.finding(
                        source, candidate.lineno,
                        "iteration over an unordered set in a byte-compared "
                        "writer; wrap it in sorted()",
                    )


@register
class IdSortKeyRule(Rule):
    """Never sort by ``id()``.

    ``id()`` returns an object's address, which changes on every run —
    a sort keyed on it produces a different order each time, which both
    breaks byte-identical output and masquerades as a total order in
    code review.  Sort by a stable field of the object instead.
    """

    id = "DET004"
    title = "id()-based sort key"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            if not (name in ("sorted", "min", "max") or name.endswith(".sort")):
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or (
                    isinstance(value, ast.Lambda)
                    and any(
                        isinstance(sub, ast.Call)
                        and dotted_name(sub.func) == "id"
                        for sub in ast.walk(value.body)
                    )
                )
                if uses_id:
                    yield self.finding(
                        source, node.lineno,
                        "sort key uses id(), which differs every run; "
                        "key on a stable field instead",
                    )
