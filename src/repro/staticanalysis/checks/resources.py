"""Resource-handling detectors (paper: ecosystem/system-call interactions).

The study's non-controller-logic root causes are dominated by ecosystem
interactions — and file descriptors plus rename-based publication are the
two such interactions this repo leans on hardest (journal, artifact
cache, fold snapshots).

* ``open-no-with`` — an ``open()`` whose handle is neither managed by a
  ``with`` block, closed in the same scope, nor owned by an object
  (``self.handle = open(...)``): a leak under any exception path.
* ``replace-no-fsync`` — a function that writes data and publishes it
  with ``os.replace`` but never calls ``os.fsync``: after a crash the
  rename may survive while the data does not, exactly the torn-write
  class the recovery harness injects.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticanalysis.checks.base import (
    AnalysisContext,
    Detector,
    enclosing_function,
)
from repro.staticanalysis.loader import ModuleInfo, parent_of
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause

_WRITE_MODES = ("w", "a", "x", "+")


class OpenNoWithDetector(Detector):
    id = "open-no-with"
    family = "resources"
    description = "open() not guarded by with/close (leaks on error paths)"
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.Call):
            if not _is_open_call(node, module):
                continue
            if self._is_managed(node, module):
                continue
            found = self.finding(
                module, ctx, node,
                "open() without a with-block or same-scope close(); the "
                "descriptor leaks on any exception path",
            )
            if found is not None:
                yield found

    @staticmethod
    def _is_managed(call: ast.Call, module: ModuleInfo) -> bool:
        parent = parent_of(module, call)
        # with open(...) as f:  /  with closing(open(...)):
        if isinstance(parent, ast.withitem):
            return True
        if (
            isinstance(parent, ast.Call)
            and module.resolve(parent.func)
            in ("contextlib.closing", "contextlib.ExitStack.enter_context")
        ):
            return True
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            # self.handle = open(...): ownership moves to the object, whose
            # close()/__exit__ is that type's concern, not this scope's.
            if isinstance(target, ast.Attribute):
                return True
            if isinstance(target, ast.Name):
                scope = enclosing_function(module, parent) or module.tree
                return _scope_closes_or_returns(module.own_nodes(scope), target.id)
        return False


def _is_open_call(call: ast.Call, module: ModuleInfo) -> bool:
    qualified = module.resolve(call.func)
    if qualified == "open" or qualified == "io.open":
        return True
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "open"):
        return False
    # ``path.open(...)`` on a pathlib-style object counts; ``mod.open(...)``
    # on some other imported module (webbrowser, gzip, ...) does not.
    root = (qualified or "").split(".")[0]
    return root not in module.imports


def _scope_closes_or_returns(scope_nodes: list[ast.AST], name: str) -> bool:
    for node in scope_nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "close"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            return True  # ownership transferred to the caller
    return False


class ReplaceNoFsyncDetector(Detector):
    id = "replace-no-fsync"
    family = "resources"
    description = "write-tmp-rename publish without fsync before os.replace"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for func in module.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_function(func, module, ctx)

    def _check_function(
        self, func: ast.AST, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        replaces: list[ast.Call] = []
        has_fsync = False
        first_write_line: int | None = None
        for node in module.own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.resolve(node.func)
            if qualified in ("os.replace", "os.rename"):
                replaces.append(node)
            elif qualified in ("os.fsync", "os.fdatasync"):
                has_fsync = True
            elif _is_write_evidence(node, module, qualified):
                line = getattr(node, "lineno", 0)
                if first_write_line is None or line < first_write_line:
                    first_write_line = line
        if not replaces or has_fsync or first_write_line is None:
            return
        # Only a write that happens *before* the rename can be the renamed
        # content; trailing breadcrumb writes don't make the publish torn.
        replaces = [
            call for call in replaces
            if getattr(call, "lineno", 0) > first_write_line
        ]
        for call in replaces:
            verb = module.resolve(call.func)
            found = self.finding(
                module, ctx, call,
                f"{verb} publishes freshly written data with no fsync: a "
                "crash can keep the rename but lose the bytes; fsync the "
                "file (and ideally its directory) first",
            )
            if found is not None:
                yield found


def _is_write_evidence(
    call: ast.Call, module: ModuleInfo, qualified: str | None
) -> bool:
    """Does this call write file contents (open-for-write or .write*)?"""
    if _is_open_call(call, module):
        mode = None
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            mode = call.args[1].value
        elif len(call.args) >= 1 and isinstance(call.func, ast.Attribute):
            # path.open("w"): mode is the first argument.
            if isinstance(call.args[0], ast.Constant):
                mode = call.args[0].value
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                mode = keyword.value.value
        return isinstance(mode, str) and any(c in mode for c in _WRITE_MODES)
    if isinstance(call.func, ast.Attribute):
        return call.func.attr in ("write", "writelines", "write_text", "write_bytes")
    return False
