"""Small AST helpers shared by the rule families."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; ``None`` for anything else.

    ``sorted(x)`` → ``"sorted"``; ``time.time`` → ``"time.time"``;
    ``self.clock.span`` → ``"self.clock.span"``.  Chains rooted in calls
    or subscripts resolve to ``None`` — the rules treat those as opaque.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def suffix_hit(name: Optional[str], suffixes: Iterable[str]) -> Optional[str]:
    """The first of ``suffixes`` that ``name`` is or ends with (after a
    dot); ``None`` when none matches or ``name`` is ``None``."""
    if name is None:
        return None
    for suffix in suffixes:
        if name == suffix or name.endswith("." + suffix):
            return suffix
    return None


def count_loc(text: str) -> int:
    """Lines of code: non-blank lines that are not pure comments.

    Deliberately simple and deterministic — the TCB report compares
    sizes against the paper's Figure 6, where exact counting rules
    matter less than stability.
    """
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


@dataclass(frozen=True)
class ImportEdge:
    """One import statement: the importing module depends on ``target``."""

    target: str
    line: int
    #: True when the import only executes under ``if TYPE_CHECKING:`` —
    #: annotation-only, so not part of the runtime TCB.
    type_checking: bool


def _is_type_checking_test(test: ast.AST) -> bool:
    return dotted_name(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def resolve_relative(
    module: str, level: int, base: str, is_package: bool = False
) -> str:
    """Absolute dotted target of a ``from ...base import x`` statement.

    ``module`` is the importing module; pass ``is_package=True`` for a
    package ``__init__`` (whose single leading dot names the package
    itself rather than its parent).
    """
    parts = module.split(".") if module else []
    keep = len(parts) - level + (1 if is_package else 0)
    parent = ".".join(parts[: max(keep, 0)])
    if base and parent:
        return f"{parent}.{base}"
    return base or parent


def iter_imports(
    tree: ast.AST, module: str = "", is_package: bool = False
) -> Iterator[ImportEdge]:
    """Every import in ``tree``, including function-local ones.

    ``from pkg import name`` yields ``pkg.name`` *and* ``pkg`` — the
    caller resolves which of the two an edge should target (only one
    will exist as a module).  Relative imports are resolved against
    ``module`` (pass ``is_package=True`` for ``__init__`` modules);
    imports under ``if TYPE_CHECKING:`` are marked.
    """

    def visit(node: ast.AST, type_checking: bool) -> Iterator[ImportEdge]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield ImportEdge(alias.name, node.lineno, type_checking)
            return
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = resolve_relative(module, node.level, base, is_package)
            if base:
                yield ImportEdge(base, node.lineno, type_checking)
                for alias in node.names:
                    if alias.name != "*":
                        yield ImportEdge(
                            f"{base}.{alias.name}", node.lineno, type_checking
                        )
            return
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for child in node.body:
                yield from visit(child, True)
            for child in node.orelse:
                yield from visit(child, type_checking)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, type_checking)

    yield from visit(tree, False)
