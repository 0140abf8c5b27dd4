"""Detector protocol and shared AST helpers for sdnlint checks."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.staticanalysis.loader import ModuleInfo, parent_of
from repro.staticanalysis.model import Finding, Severity, relative_path
from repro.taxonomy import BugType, RootCause

#: Inline suppression marker: ``# sdnlint: disable=<id>[,<id>...]`` or
#: ``# sdnlint: disable-all`` on the flagged line.
_DISABLE_RE = re.compile(r"#\s*sdnlint:\s*disable(?:=([\w.,\- ]+)|-all)")


@dataclass
class AnalysisContext:
    """Cross-module state shared by every detector in one run."""

    modules: list[ModuleInfo]
    root: Path
    #: fully qualified function/method name -> (module, def node).
    functions: dict[str, tuple[ModuleInfo, ast.AST]] = field(default_factory=dict)
    #: fully qualified class name -> (module, ClassDef).
    classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = field(default_factory=dict)

    def index(self) -> None:
        """Build the cross-module symbol table (idempotent)."""
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions[f"{module.name}.{node.name}"] = (module, node)
                elif isinstance(node, ast.ClassDef):
                    self.classes[f"{module.name}.{node.name}"] = (module, node)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            key = f"{module.name}.{node.name}.{item.name}"
                            self.functions[key] = (module, item)

    def resolve_function(
        self, module: ModuleInfo, node: ast.AST
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """Resolve a Name/Attribute reference to a known def, across imports."""
        qualified = module.resolve(node)
        if qualified is None:
            return None
        hit = self.functions.get(qualified)
        if hit is not None:
            return hit
        # A bare local name: try this module's own namespace.
        if "." not in qualified:
            return self.functions.get(f"{module.name}.{qualified}")
        return None


class BaseDetector:
    """What every detector declares, classic or ``dataflow.*``, and the one
    way both file a finding."""

    id: str = ""
    family: str = ""  # nondeterminism | error_handling | concurrency | resources
    description: str = ""
    severity: Severity = Severity.WARNING
    bug_type: BugType = BugType.DETERMINISTIC
    root_cause: RootCause = RootCause.MISSING_LOGIC

    def _finding(
        self,
        path: str | Path,
        root: Path,
        line: int,
        col: int,
        message: str,
        line_text: str,
        severity: Severity | None = None,
    ) -> Finding | None:
        """A finding at ``path:line:col``, or None when ``line_text``, the
        source of that line, disables this detector inline."""
        match = _DISABLE_RE.search(line_text)
        if match is not None and (
            match.group(1) is None  # disable-all
            or self.id in {part.strip() for part in match.group(1).split(",")}
        ):
            return None
        return Finding(
            detector=self.id,
            message=message,
            path=relative_path(path, root),
            line=line,
            col=col,
            severity=severity or self.severity,
            bug_type=self.bug_type,
            root_cause=self.root_cause,
        )


class Detector(BaseDetector):
    """One bug-pattern check.

    Subclasses set the class attributes and implement :meth:`check_module`
    (per-file findings) and/or :meth:`finalize` (cross-module findings,
    e.g. the lock-order graph).
    """

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        return iter(())

    def finalize(self, ctx: AnalysisContext) -> Iterator[Finding]:
        return iter(())

    # -- helpers ---------------------------------------------------------------
    def finding(
        self,
        module: ModuleInfo,
        ctx: AnalysisContext,
        node: ast.AST,
        message: str,
        *,
        severity: Severity | None = None,
    ) -> Finding | None:
        """Build a finding at ``node``, honouring inline suppressions."""
        line = getattr(node, "lineno", 0)
        return self._finding(
            module.path, ctx.root, line, getattr(node, "col_offset", 0),
            message, module.line_text(line), severity,
        )


# -- AST utilities shared by several detectors --------------------------------

def enclosing_function(module: ModuleInfo, node: ast.AST) -> ast.AST | None:
    """Nearest enclosing FunctionDef/AsyncFunctionDef, or None at module level."""
    cursor = parent_of(module, node)
    while cursor is not None:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cursor
        cursor = parent_of(module, cursor)
    return None


def has_bare_raise(body: list[ast.stmt]) -> bool:
    """True if the handler body re-raises (bare ``raise`` or raise-from)."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


def is_set_expr(node: ast.AST, module: ModuleInfo) -> bool:
    """Syntactically set-typed: a set literal/comprehension or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return module.resolve(node.func) in ("set", "frozenset")
    return False


def set_typed_names(scope: ast.AST, module: ModuleInfo) -> set[str]:
    """Names bound to set-typed values in ``scope`` and never rebound otherwise.

    Conservative local inference: a name qualifies only when *every*
    assignment to it in the scope is set-typed (including ``x: set[...]``
    annotations), so reuse of a name for other types disqualifies it.
    """
    set_bound: set[str] = set()
    other_bound: set[str] = set()
    for node in module.own_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                bucket = set_bound if is_set_expr(node.value, module) else other_bound
                bucket.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = node.annotation
            base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
            named = module.resolve(base)
            if named in ("set", "frozenset", "typing.Set", "typing.FrozenSet"):
                set_bound.add(node.target.id)
            elif node.value is not None and is_set_expr(node.value, module):
                set_bound.add(node.target.id)
            else:
                other_bound.add(node.target.id)
    return set_bound - other_bound
