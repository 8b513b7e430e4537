"""Interprocedural taint: the one dataflow engine of the analyzer.

SEC001, SEC002, ISO001 and ISO002 all read :class:`TaintAnalysis`
results.  A :class:`TaintConfig` is a *vocabulary* — which calls are
sources and which publish their arguments — and :func:`get_taint` runs
one analysis per vocabulary per project, cached on the project like the
call graph, so rules sharing a vocabulary share a run.

The analysis computes *function summaries* over the call graph
(:mod:`repro.analysis.callgraph`):

``returns_secret``
    the function's return value carries tainted material regardless of
    its arguments (it calls a source, or reads a tainted attribute);
``param_to_return``
    parameters whose taint flows to the return value (decoder/wrapper
    functions);
``param_to_sink``
    parameters whose taint reaches a sink inside the function —
    passing a tainted value *into* such a function is itself a leak;
``secret attributes``
    ``self.attr = <secret>`` stores, so a method that stashes unsealed
    material and a sibling method that logs it are connected.

Summaries only grow, so they are iterated to a fixpoint, re-summarizing
a function only when a callee's summary or its class's tainted
attributes grew.  Detection then walks every function once and tags
each flow *intra* (the source call is in the same function) or *cross*:
the taint crossed a function boundary, as in the wrapper below, or the
function hands it to a callee that publishes it.

.. code-block:: python

    def load_key(ctx):
        return ctx.tpm.unseal(blob)      # fine on its own

    def report(ctx, log):
        log.info(load_key(ctx))          # cross: the leak is two functions away

A call resolved to project functions (:meth:`CallGraph.callees_at`:
precise edges plus unambiguous suffix matches) takes its taint from
their summaries, so ``y = wrap(secret)`` is tainted only if ``wrap``
forwards that parameter; an unresolved call (``str()``, ``.hex()``,
joins) stays conservative.  Digests, lengths and the public half of a
keypair are public by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name, suffix_hit
from repro.analysis.callgraph import CallGraph, FunctionInfo, get_callgraph
from repro.analysis.engine import Finding, Project, Rule, register
from repro.analysis.secret_flow import (
    SANITIZER_NAMES,
    SECRET_SOURCE_SUFFIXES,
    SINK_SUFFIXES,
)

#: Attribute selections that *declassify*: reading the public half of a
#: keypair (``keys.public``, ``authority.public_key``) yields a value
#: the protocols publish by construction.  The private halves
#: (``.private``) keep their taint.
PUBLIC_ATTRS = ("public", "public_key")

#: Label meaning "directly from a source call in this function".
SECRET = "secret"
#: Label meaning "secret via at least one function boundary".
XSECRET = "xsecret"

_SECRETISH = frozenset((SECRET, XSECRET))


@dataclass(frozen=True)
class TaintConfig:
    """One vocabulary: which calls produce taint, which publish it."""

    is_source: Callable[[ast.Call], bool]
    sink_suffixes: Tuple[str, ...] = ()


def calls_named(suffixes: Tuple[str, ...]) -> Callable[[ast.Call], bool]:
    """A source test: the callee's dotted name ends in one of ``suffixes``."""
    return lambda call: suffix_hit(dotted_name(call.func), suffixes) is not None


#: Unsealed plaintext, GetRandom output and generated keys (SEC001/SEC002).
SECRET_TAINT = TaintConfig(calls_named(SECRET_SOURCE_SUFFIXES), SINK_SUFFIXES)


@dataclass
class Summary:
    """What one function does with secrets and with its parameters."""

    returns_secret: bool = False
    param_to_return: Set[str] = field(default_factory=set)
    param_to_sink: Set[str] = field(default_factory=set)

    def snapshot(self) -> Tuple[bool, frozenset, frozenset]:
        return (
            self.returns_secret,
            frozenset(self.param_to_return),
            frozenset(self.param_to_sink),
        )


@dataclass(frozen=True)
class TaintFlow:
    """One tainted value reaching a sink, before a rule words it."""

    relpath: str
    line: int
    function: str  # qualname of the function holding the sink
    #: True when the source call sits in ``function`` itself.
    intra: bool
    #: The sink name hit; ``None`` for a raised exception's message or a
    #: publishing callee.
    sink: Optional[str] = None
    #: A callee that publishes its parameter ``param``.
    callee: Optional[str] = None
    param: Optional[str] = None


def cross_message(flow: TaintFlow, noun: str, param_noun: str) -> str:
    """SEC002/ISO002 wording for one flow."""
    if flow.callee is not None:
        return (
            f"{param_noun} passed to {flow.callee}() parameter "
            f"'{flow.param}', which publishes it"
        )
    if flow.sink is not None:
        return (
            f"{noun} reaches '{flow.sink}' in {flow.function}; publish a "
            "digest or length instead"
        )
    return (
        f"{noun} reaches an exception message in {flow.function}; "
        "exceptions cross the trust boundary"
    )


def _is_sanitizer_call(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name is not None and name.rsplit(".", 1)[-1] in SANITIZER_NAMES


def _assign_targets(targets: List[ast.expr]) -> List[str]:
    """Names an assignment binds (plain and tuple/list unpacking)."""
    names: List[str] = []
    for target in targets:
        elements = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        names.extend(e.id for e in elements if isinstance(e, ast.Name))
    return names


def _own_attr(target: ast.expr) -> Optional[str]:
    """``attr`` for a ``self.attr`` / ``cls.attr`` expression."""
    chain = dotted_name(target)
    if chain is not None and chain.startswith(("self.", "cls.")) and chain.count(".") == 1:
        return chain.split(".", 1)[1]
    return None


def _class_of(info: FunctionInfo) -> Optional[str]:
    return f"{info.module}.{info.class_name}" if info.class_name else None


def _params(labels: Iterable[str]) -> List[str]:
    return [label[len("param:"):] for label in labels if label.startswith("param:")]


def _call_args(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [k.value for k in call.keywords]


@dataclass
class _Body:
    """One function's dataflow-relevant nodes, from a single AST walk."""

    #: ``(bound names, value, self attributes stored)`` per binding.
    bindings: List[Tuple[List[str], ast.expr, List[str]]]
    #: Return values, plus yielded values for generators.
    returns: List[ast.expr]
    calls: List[ast.Call]
    raises: List[ast.Raise]


def _walk_body(info: FunctionInfo) -> _Body:
    body = _Body([], [], [], [])
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            body.calls.append(node)
        elif isinstance(node, ast.For):
            target = node.target
            names = [target.id] if isinstance(target, ast.Name) else []
            body.bindings.append((names, node.iter, []))
        elif (
            isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and node.value is not None
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            attrs = [a for a in map(_own_attr, targets) if a is not None]
            body.bindings.append((_assign_targets(targets), node.value, attrs))
        elif isinstance(node, ast.Return) and node.value is not None:
            body.returns.append(node.value)
        elif (
            isinstance(node, (ast.Yield, ast.YieldFrom))
            and node.value is not None and info.is_generator
        ):
            body.returns.append(node.value)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            body.raises.append(node)
    return body


class TaintAnalysis:
    """Summary computation + detection for one :class:`TaintConfig`."""

    def __init__(self, project: Project, config: TaintConfig) -> None:
        self.project = project
        self.config = config
        self.graph: CallGraph = get_callgraph(project)
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in self.graph.functions
        }
        #: ``(class qualname, attr name)`` holding secret material.
        self.secret_attrs: Set[Tuple[str, str]] = set()
        self._bodies = {
            q: _walk_body(info) for q, info in self.graph.functions.items()
        }
        self._compute_summaries()

    # -- call resolution -------------------------------------------------------

    def _callees_at(self, info: FunctionInfo, call: ast.Call) -> List[str]:
        return self.graph.callees_at(
            self.project.by_module[info.module], info.class_name, call
        )

    def _map_args(
        self, callee: FunctionInfo, call: ast.Call
    ) -> List[Tuple[str, ast.expr]]:
        """``(parameter name, argument expression)`` pairs for a call.

        Method calls written through a receiver (``obj.meth(x)``) bind
        the first declared parameter implicitly, so positionals shift
        by one.  Overflow into ``*args``/``**kwargs`` is dropped.
        """
        offset = (
            1 if callee.is_method and callee.params
            and callee.params[0] in ("self", "cls") else 0
        )
        pairs: List[Tuple[str, ast.expr]] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            slot = index + offset
            if slot < len(callee.params):
                pairs.append((callee.params[slot], arg))
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in callee.params:
                pairs.append((keyword.arg, keyword.value))
        return pairs

    # -- label evaluation ------------------------------------------------------

    def _expr_labels(
        self,
        node: ast.AST,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
    ) -> Set[str]:
        """Taint labels carried by an expression.

        Labels are ``secret`` (source call in this function), ``xsecret``
        (crossed a function boundary), and ``param:<name>`` (depends on
        a caller argument — used only while computing summaries).
        """
        labels: Set[str] = set()

        def visit(sub: ast.AST) -> None:
            if isinstance(sub, ast.Name):
                labels.update(env.get(sub.id, ()))
                return
            if isinstance(sub, ast.Attribute):
                if sub.attr in PUBLIC_ATTRS:
                    return  # the public half of a keypair is public
                attr = _own_attr(sub)
                if attr is not None and (_class_of(info), attr) in self.secret_attrs:
                    labels.add(XSECRET)
            elif isinstance(sub, ast.Call):
                if _is_sanitizer_call(sub):
                    return  # a digest/length of a secret is public
                if self._call_labels(sub, env, info, labels):
                    # A source call, or one resolved to a project
                    # function: the summary decides what flows out, so
                    # a tainted *argument* does not taint the result
                    # (a constructor given a secret does not make the
                    # whole object secret).  Unresolved calls (str(),
                    # .hex(), joins) stay conservative below.
                    return
            for child in ast.iter_child_nodes(sub):
                visit(child)

        visit(node)
        return labels

    def _call_labels(
        self,
        call: ast.Call,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
        labels: Set[str],
    ) -> bool:
        """Labels a call's result carries; True when the call was a
        source or resolved to project callees (summary is authoritative).
        A forwarded argument keeps its own labels: a secret from this
        function that round-trips through a decoder is still intra."""
        if self.config.is_source(call):
            labels.add(SECRET)
            return True
        callees = self._callees_at(info, call)
        for callee_qual in callees:
            summary = self.summaries[callee_qual]
            if summary.returns_secret:
                labels.add(XSECRET)
            if summary.param_to_return:
                callee = self.graph.functions[callee_qual]
                for pname, arg in self._map_args(callee, call):
                    if pname in summary.param_to_return:
                        labels.update(self._expr_labels(arg, env, info))
        return bool(callees)

    def _propagate(
        self,
        info: FunctionInfo,
        env: Dict[str, Set[str]],
        record_attrs: bool,
    ) -> None:
        """Run the function's bindings to a local fixpoint; with
        ``record_attrs``, also record ``self.attr`` secret stores."""
        changed = True
        while changed:
            changed = False
            for names, value, attrs in self._bodies[info.qualname].bindings:
                labels = self._expr_labels(value, env, info)
                if not labels:
                    continue
                for name in names:
                    if not labels <= env.setdefault(name, set()):
                        env[name].update(labels)
                        changed = True
                if record_attrs and attrs and labels & _SECRETISH and info.class_name:
                    for attr in attrs:
                        key = (_class_of(info), attr)
                        if key not in self.secret_attrs:
                            self.secret_attrs.add(key)
                            changed = True

    # -- summaries -------------------------------------------------------------

    def _compute_summaries(self) -> None:
        """Summarize every function, then re-summarize only the callers
        of a grown summary and the methods of a class whose secret
        attributes grew, until nothing grows."""
        functions = self.graph.functions
        callers: Dict[str, Set[str]] = {}
        methods: Dict[Optional[str], Set[str]] = {}
        for qualname, info in functions.items():
            for call in self._bodies[qualname].calls:
                for callee in self._callees_at(info, call):
                    callers.setdefault(callee, set()).add(qualname)
            methods.setdefault(_class_of(info), set()).add(qualname)
        dirty = set(functions)
        while dirty:
            batch, dirty = sorted(dirty), set()
            for qualname in batch:
                info = functions[qualname]
                before = self.summaries[qualname].snapshot()
                attrs_before = len(self.secret_attrs)
                self._summarize(info)
                if self.summaries[qualname].snapshot() != before:
                    dirty |= callers.get(qualname, set())
                if len(self.secret_attrs) != attrs_before:
                    dirty |= methods[_class_of(info)]

    def _summarize(self, info: FunctionInfo) -> None:
        summary = self.summaries[info.qualname]
        env: Dict[str, Set[str]] = {
            p: {f"param:{p}"} for p in info.params if p not in ("self", "cls")
        }
        self._propagate(info, env, record_attrs=True)
        body = self._bodies[info.qualname]
        for value in body.returns:
            labels = self._expr_labels(value, env, info)
            if labels & _SECRETISH:
                summary.returns_secret = True
            summary.param_to_return.update(_params(labels))
        for call in body.calls:
            summary.param_to_sink.update(self._sink_arg_params(call, env, info))

    def _sink_arg_params(
        self, call: ast.Call, env: Dict[str, Set[str]], info: FunctionInfo
    ) -> Set[str]:
        """Parameters whose taint this call would publish: direct sink
        calls, plus calls into a callee with ``param_to_sink``."""
        params: Set[str] = set()
        if suffix_hit(dotted_name(call.func), self.config.sink_suffixes):
            for arg in _call_args(call):
                params.update(_params(self._expr_labels(arg, env, info)))
        for callee_qual in self._callees_at(info, call):
            callee_summary = self.summaries[callee_qual]
            if not callee_summary.param_to_sink:
                continue
            callee = self.graph.functions[callee_qual]
            for pname, arg in self._map_args(callee, call):
                if pname in callee_summary.param_to_sink:
                    params.update(_params(self._expr_labels(arg, env, info)))
        return params

    # -- detection -------------------------------------------------------------

    @cached_property
    def flows(self) -> List[TaintFlow]:
        """Flows visible with *no* assumptions about caller arguments."""
        found: List[TaintFlow] = []
        for qualname in sorted(self.graph.functions):
            found.extend(self._detect(self.graph.functions[qualname]))
        return found

    def _detect(self, info: FunctionInfo) -> Iterable[TaintFlow]:
        env: Dict[str, Set[str]] = {}
        self._propagate(info, env, record_attrs=False)
        body = self._bodies[info.qualname]
        for call in body.calls:
            hit = suffix_hit(dotted_name(call.func), self.config.sink_suffixes)
            if hit:
                for intra in self._origins(_call_args(call), env, info):
                    yield TaintFlow(info.relpath, call.lineno, info.qualname, intra, hit)
            for callee_qual in self._callees_at(info, call):
                summary = self.summaries[callee_qual]
                if not summary.param_to_sink:
                    continue
                callee = self.graph.functions[callee_qual]
                for pname, arg in self._map_args(callee, call):
                    if (
                        pname in summary.param_to_sink
                        and self._expr_labels(arg, env, info) & _SECRETISH
                    ):
                        yield TaintFlow(
                            info.relpath, call.lineno, info.qualname, False,
                            callee=callee_qual, param=pname,
                        )
                        break
        for node in body.raises:
            exc = node.exc
            exprs = (
                _call_args(exc) if isinstance(exc, ast.Call)
                else [exc] if isinstance(exc, ast.Name) else []
            )
            for intra in self._origins(exprs, env, info):
                yield TaintFlow(info.relpath, node.lineno, info.qualname, intra)

    def _origins(
        self, exprs: List[ast.expr], env: Dict[str, Set[str]], info: FunctionInfo
    ) -> List[bool]:
        """One ``intra`` tag per kind of taint the expressions carry: an
        expression holding a same-function secret is intra, one holding
        only a cross-function secret is cross."""
        tags: Set[bool] = set()
        for expr in exprs:
            labels = self._expr_labels(expr, env, info)
            if SECRET in labels:
                tags.add(True)
            elif XSECRET in labels:
                tags.add(False)
        return sorted(tags)


def get_taint(project: Project, config: TaintConfig) -> TaintAnalysis:
    """One vocabulary's analysis, run once and cached on the project."""
    runs = project.__dict__.setdefault("_taint_runs", {})
    if config not in runs:
        runs[config] = TaintAnalysis(project, config)
    return runs[config]


@register
class InterproceduralSecretFlowRule(Rule):
    """Secrets must not leak through wrapper functions into sinks.

    SEC001 reports a secret that reaches a sink in the function that
    produced it; SEC002 reports the flows that cross a function
    boundary, from the same analysis run.  Taint from
    ``unseal``/``get_random``/key-generation calls follows function
    summaries computed over the project call graph: a function that
    *returns* a secret, *forwards* a parameter to its return value,
    *publishes* a parameter to a sink, or *stores* a secret on ``self``
    extends the flow into every caller.  A finding fires when such a
    cross-function flow reaches the SEC001 sinks (logging, trace
    events, observability spans, ``print``, raised exception messages).

    The same sanitizers apply — route the value through ``sha1``/
    ``len``/``io_measurement`` to publish a digest or size.  Calls only
    propagate through precise call-graph edges and unambiguous
    name-suffix matches, so a finding always names a concrete callee;
    fix the flow, or suppress with ``# repro: noqa[SEC002]`` plus a
    justification.
    """

    id = "SEC002"
    title = "interprocedural secret flow reaches an output channel"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for flow in get_taint(project, SECRET_TAINT).flows:
            if not flow.intra:
                yield Finding(
                    self.id, flow.relpath, flow.line,
                    cross_message(flow, "secret from another function", "secret value"),
                    self.severity,
                )
