"""The analysis engine: findings, the rule registry, suppressions, and
baselines.

The engine is deliberately small.  A :class:`SourceFile` is one parsed
Python file (text, AST, suppression table); a :class:`Project` is the
set of files under analysis plus their dotted-module index; a
:class:`Rule` either makes sense on a lone file (``scope = "file"``, so
:func:`analyze_source` runs it on a snippet) or needs the whole project
(``scope = "project"``, used by the TCB audit, which needs the import
graph and a committed report).

Suppressions use the ``# repro: noqa[RULE-ID]`` comment syntax:

* trailing a line of code, it suppresses the named rules on that line;
* on a line of its own, it suppresses the named rules for the whole
  file;
* ``# repro: noqa`` with no bracket suppresses every rule.

Baselines grandfather pre-existing findings: a committed JSON file maps
``(rule, path, message)`` triples (line numbers are deliberately
excluded so unrelated edits do not churn the file) to counts; findings
covered by the baseline are reported separately and do not fail the
run.
"""

from __future__ import annotations

import ast
import io
import json
import re
import time
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Matches ``# repro: noqa`` and ``# repro: noqa[DET001,SEC001]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s-]+)\])?")

#: Findings at or above this severity fail the run.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative POSIX path
    line: int
    message: str
    severity: str = "error"

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line drift."""
        return (self.rule, self.path, self.message)

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }


class Rule:
    """Base class for analysis rules.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`severity`, write
    their rationale in the class docstring (shown by ``--explain``), and
    implement :meth:`check_file` or — for whole-program rules —
    :meth:`check_project`.
    """

    id: str = ""
    title: str = ""
    severity: str = "error"
    scope: str = "file"

    def explain(self) -> str:
        """The rule's rationale and how to fix or suppress findings."""
        doc = (type(self).__doc__ or "").strip()
        return f"{self.id}: {self.title}\n\n{doc}"

    def check_file(self, source: "SourceFile") -> Iterable[Finding]:
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        for source in project.files:
            yield from self.check_file(source)

    def finding(self, source: "SourceFile", line: int, message: str) -> Finding:
        return Finding(self.id, source.relpath, line, message, self.severity)


#: Registry of every rule, id → instance, in registration order.
_RULES: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id for deterministic output."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Optional[Rule]:
    return _RULES.get(rule_id)


# -- source files and projects -------------------------------------------------


@dataclass(frozen=True)
class SuppressionRecord:
    """One ``# repro: noqa`` marker, as written in the source."""

    line: int
    ids: frozenset
    #: True for a standalone comment line (file-wide suppression).
    standalone: bool


@dataclass
class SourceFile:
    """One parsed Python source file."""

    relpath: str
    module: str
    text: str
    tree: ast.AST
    #: Rule ids suppressed for the whole file ("*" = all rules).
    file_suppressions: frozenset = frozenset()
    #: line number → suppressed rule ids ("*" = all rules).
    line_suppressions: Dict[int, frozenset] = field(default_factory=dict)
    #: Every suppression marker, in source order (SUP001 audits these).
    suppression_records: List[SuppressionRecord] = field(default_factory=list)

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    def suppressed(self, rule_id: str, line: int) -> bool:
        for ids in (self.file_suppressions, self.line_suppressions.get(line, frozenset())):
            if "*" in ids or rule_id in ids:
                return True
        return False


def _parse_suppressions(
    text: str,
) -> Tuple[frozenset, Dict[int, frozenset], List[SuppressionRecord]]:
    """Suppressions from *comment tokens only*.

    Tokenizing (rather than regex-scanning raw lines) means a noqa
    marker quoted inside a triple-quoted string is just data, and a
    single comment stacking several markers
    (``# repro: noqa[A] # repro: noqa[B]``) applies all of them.
    """
    file_ids: set = set()
    line_ids: Dict[int, set] = {}
    records: List[SuppressionRecord] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        tokens = []  # ast.parse already vouched for the file; be lenient
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        lineno = token.start[0]
        standalone = token.line[: token.start[1]].strip() == ""
        for match in _NOQA_RE.finditer(token.string):
            ids = (
                frozenset(p.strip() for p in match.group(1).split(",") if p.strip())
                if match.group(1)
                else frozenset(["*"])
            )
            records.append(SuppressionRecord(lineno, ids, standalone))
            if standalone:
                file_ids.update(ids)
            else:
                line_ids.setdefault(lineno, set()).update(ids)
    return (
        frozenset(file_ids),
        {k: frozenset(v) for k, v in line_ids.items()},
        records,
    )


def parse_source(text: str, relpath: str, module: str) -> SourceFile:
    """Parse one file's text into a :class:`SourceFile`."""
    tree = ast.parse(text, filename=relpath)
    file_ids, line_ids, records = _parse_suppressions(text)
    return SourceFile(
        relpath=relpath,
        module=module,
        text=text,
        tree=tree,
        file_suppressions=file_ids,
        line_suppressions=line_ids,
        suppression_records=records,
    )


@dataclass
class Project:
    """Every file under analysis, with a dotted-module index."""

    root: Path
    files: List[SourceFile]

    def __post_init__(self) -> None:
        self.by_module: Dict[str, SourceFile] = {
            f.module: f for f in self.files if f.module
        }

    def module_exists(self, module: str) -> bool:
        return module in self.by_module


def _module_name(root: Path, path: Path) -> str:
    """Dotted module name for ``src/repro/...`` layouts; "" otherwise."""
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts or not parts[-1].endswith(".py"):
        return ""
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def load_project(root: Path, paths: Iterable[str] = ("src/repro",)) -> Project:
    """Load every ``*.py`` file under ``paths`` (relative to ``root``)."""
    root = Path(root).resolve()
    files: List[SourceFile] = []
    seen = set()
    for entry in paths:
        base = (root / entry).resolve()
        candidates = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in candidates:
            if path in seen or "__pycache__" in path.parts:
                continue
            seen.add(path)
            relpath = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            files.append(parse_source(text, relpath, _module_name(root, path)))
    files.sort(key=lambda f: f.relpath)
    return Project(root=root, files=files)


# -- running rules -------------------------------------------------------------


def _wall_seconds() -> float:
    """Wall time for rule profiling (``meta.rule_timings`` and
    ``--profile``) — never byte-compared, unlike everything else."""
    return time.perf_counter()  # repro: noqa[DET001]


def run_rules_timed(
    project: Project, rules: Optional[Iterable[Rule]] = None
) -> Tuple[List[Finding], Dict[str, Dict[str, float]]]:
    """Like :func:`run_rules`, also returning per-rule stats.

    The stats map ``rule id -> {"wall_ms": ..., "findings": ...}`` where
    ``findings`` counts the rule's *kept* findings (after suppressions).
    """
    findings: List[Finding] = []
    stats: Dict[str, Dict[str, float]] = {}
    for rule in rules if rules is not None else all_rules():
        started = _wall_seconds()
        produced = list(rule.check_project(project))
        stats[rule.id] = {
            "wall_ms": (_wall_seconds() - started) * 1000.0,
            "findings": 0,
        }
        findings.extend(produced)
    kept = []
    for finding in findings:
        source = next((f for f in project.files if f.relpath == finding.path), None)
        if source is not None and source.suppressed(finding.rule, finding.line):
            continue
        kept.append(finding)
    result = sorted(set(kept), key=Finding.sort_key)
    for finding in result:
        if finding.rule in stats:
            stats[finding.rule]["findings"] += 1
    return result, stats


def run_rules(project: Project, rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Run rules over the project; suppressions applied, output sorted."""
    findings, _ = run_rules_timed(project, rules)
    return findings


def analyze_source(
    text: str,
    module: str = "repro.example",
    relpath: str = "example.py",
    rules: Optional[Iterable[Rule]] = None,
) -> List[Finding]:
    """Analyze one source snippet (docs and rule unit tests use this)."""
    project = Project(root=Path("."), files=[parse_source(text, relpath, module)])
    if rules is None:
        rules = [rule for rule in all_rules() if rule.scope == "file"]
    return run_rules(project, rules)


# -- baselines -----------------------------------------------------------------

BASELINE_FORMAT = "repro-analysis-baseline"
BASELINE_VERSION = 1


def load_baseline(path: Path) -> Counter:
    """Load a baseline file into a ``(rule, path, message) -> count`` map."""
    if not Path(path).exists():
        return Counter()
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != BASELINE_FORMAT:
        raise ValueError(f"{path}: not a {BASELINE_FORMAT} file")
    counter: Counter = Counter()
    for entry in doc.get("findings", ()):
        key = (entry["rule"], entry["path"], entry["message"])
        counter[key] += int(entry.get("count", 1))
    return counter


def render_baseline(findings: Iterable[Finding]) -> str:
    """Canonical baseline JSON for the given findings (byte-stable)."""
    counter = Counter(f.key() for f in findings)
    entries = [
        {"rule": rule, "path": path, "message": message, "count": count}
        for (rule, path, message), count in sorted(counter.items())
    ]
    doc = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "findings": entries,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- suppression hygiene -------------------------------------------------------


@register
class UnknownSuppressionRule(Rule):
    """Every ``# repro: noqa[RULE-ID]`` must name a registered rule.

    A suppression naming a rule that does not exist silences nothing —
    it is almost always a typo (``SEC01`` for ``SEC001``) or a leftover
    from a rule that was renamed, and the author believes a finding is
    suppressed when it is not (or worse: the typo'd suppression was
    *meant* to hide a real finding that is now invisible in review).

    Fix the id, or delete the stale marker.  ``# repro: noqa`` with no
    bracket (suppress everything) is exempt — it names no rule.
    """

    id = "SUP001"
    title = "suppression names an unknown rule id"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        for record in source.suppression_records:
            for rule_id in sorted(record.ids):
                if rule_id != "*" and rule_id not in _RULES:
                    yield self.finding(
                        source, record.line,
                        f"suppression names unknown rule '{rule_id}' "
                        "(see --list-rules); fix or remove it",
                    )


def split_baselined(
    findings: Iterable[Finding], baseline: Counter
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, grandfathered-by-baseline)."""
    budget = Counter(baseline)
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        if budget[finding.key()] > 0:
            budget[finding.key()] -= 1
            old.append(finding)
        else:
            new.append(finding)
    return new, old
