"""Error-handling detectors (paper: missing-logic root cause, Table I).

The study's largest controller-logic root-cause class is *missing logic*,
and a recurring concrete form is error paths that exist but do nothing:
exceptions caught too broadly, swallowed silently, or — worst for this
repo — masked around the fsync/rename durability sequences the crash-safe
runtime depends on.

* ``bare-except`` — ``except:`` / ``except BaseException:`` without
  re-raise also traps SystemExit and KeyboardInterrupt.
* ``overbroad-except`` — ``except Exception`` that never re-raises;
  legitimate fault boundaries should name what they absorb or carry an
  explicit suppression/baseline entry.
* ``swallowed-exception`` — a handler whose entire body is ``pass``.
* ``durability-except`` — a handler that masks failures of a try-block
  containing ``os.fsync``/``os.replace``: a swallowed durability error
  publishes state that may not survive a crash.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticanalysis.checks.base import (
    AnalysisContext,
    Detector,
    has_bare_raise,
)
from repro.staticanalysis.loader import ModuleInfo
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause

_DURABILITY_CALLS = {"os.fsync", "os.replace", "os.rename", "os.fdatasync"}


def _handler_only_passes(handler: ast.ExceptHandler) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


class BareExceptDetector(Detector):
    id = "bare-except"
    family = "error_handling"
    description = "bare except / except BaseException without re-raise"
    severity = Severity.ERROR
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.ExceptHandler):
            if node.type is None:
                message = (
                    "bare except traps SystemExit/KeyboardInterrupt; catch a "
                    "concrete exception type"
                )
            elif (
                module.resolve(node.type) == "BaseException"
                and not has_bare_raise(node.body)
            ):
                message = (
                    "except BaseException without re-raise traps interpreter "
                    "shutdown signals"
                )
            else:
                continue
            found = self.finding(module, ctx, node, message)
            if found is not None:
                yield found


class OverbroadExceptDetector(Detector):
    id = "overbroad-except"
    family = "error_handling"
    description = "except Exception that never re-raises"
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.ExceptHandler):
            if node.type is None:
                continue
            if module.resolve(node.type) != "Exception":
                continue
            if has_bare_raise(node.body):
                continue
            found = self.finding(
                module, ctx, node,
                "except Exception without re-raise absorbs unrelated "
                "failures; narrow the type or re-raise after recording",
            )
            if found is not None:
                yield found


class SwallowedExceptionDetector(Detector):
    id = "swallowed-exception"
    family = "error_handling"
    description = "exception handler whose whole body is pass"
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.ExceptHandler):
            if node.type is None:
                continue  # bare-except already files an error here
            if not _handler_only_passes(node):
                continue
            shown = module.resolve(node.type) or "…"
            found = self.finding(
                module, ctx, node,
                f"except {shown}: pass silently discards the failure; at "
                "minimum record it (symptom class: byzantine/no-alert)",
            )
            if found is not None:
                yield found


class DurabilityExceptDetector(Detector):
    id = "durability-except"
    family = "error_handling"
    description = "exceptions masked around fsync/replace durability sequences"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.Try):
            if not self._try_body_is_durability(node, module):
                continue
            for handler in node.handlers:
                if has_bare_raise(handler.body):
                    continue
                found = self.finding(
                    module, ctx, handler,
                    "handler masks a failed fsync/replace: the publish is "
                    "not durable but callers proceed as if it were; re-raise",
                )
                if found is not None:
                    yield found

    @staticmethod
    def _try_body_is_durability(node: ast.Try, module: ModuleInfo) -> bool:
        for stmt in node.body:
            for child in ast.walk(stmt):
                if (
                    isinstance(child, ast.Call)
                    and module.resolve(child.func) in _DURABILITY_CALLS
                ):
                    return True
        return False
