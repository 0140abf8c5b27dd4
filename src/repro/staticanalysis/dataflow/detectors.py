"""The ``dataflow.*`` detector family: interprocedural findings.

Each detector reads the linked :class:`~repro.staticanalysis.dataflow
.callgraph.CallGraph` and the fixpoint facts in :class:`~repro
.staticanalysis.dataflow.taint.TaintAnalysis` — it never re-walks an
AST.  All five are keyed to Table-I root causes, extending the PR-5
single-module family across function boundaries:

============================================ ==================== =====================
detector                                      bug type             root cause
============================================ ==================== =====================
``dataflow.wall-clock-taint``                 non-deterministic    ecosystem/system call
``dataflow.unseeded-rng-taint``               non-deterministic    missing logic
``dataflow.unpriced-exception``               deterministic        missing logic
``dataflow.cross-function-lock-cycle``        non-deterministic    concurrency
``dataflow.escaping-handle``                  deterministic        ecosystem/system call
============================================ ==================== =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.staticanalysis.checks.base import BaseDetector
from repro.staticanalysis.dataflow.callgraph import CallGraph
from repro.staticanalysis.dataflow.taint import DEFAULT_TAINT_SPEC, TaintAnalysis
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause


@dataclass
class DataflowContext:
    """Everything a dataflow detector may consult, plus source lines
    for inline-suppression checks (kept separately because the warm
    cache path never parses — but suppression must still honour the
    current text of the file)."""

    graph: CallGraph
    taint: TaintAnalysis
    root: Path
    #: absolute posix path -> source lines (1-based access via line_text).
    source_lines: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def line_text(self, path: str, line: int) -> str:
        lines = self.source_lines.get(path, ())
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def module_path(self, qualname: str) -> str:
        module, _ = self.graph.functions[qualname]
        return module.path


class DataflowDetector(BaseDetector):
    """Base class mirroring the classic Detector protocol, but the unit
    of work is the whole linked program, not one module."""

    def findings(self, ctx: DataflowContext) -> Iterator[Finding]:
        return iter(())

    def finding(
        self,
        ctx: DataflowContext,
        path: str,
        line: int,
        col: int,
        message: str,
    ) -> Finding | None:
        return self._finding(
            path, ctx.root, line, col, message, ctx.line_text(path, line)
        )


class WallClockTaintDetector(DataflowDetector):
    """A wall-clock read flows (possibly through calls) into journaled
    or fingerprinted state: the run's identity now depends on when it
    ran, the paper's canonical non-deterministic-bug shape."""

    id = "dataflow.wall-clock-taint"
    family = "nondeterminism"
    description = "wall-clock value reaches journaled/fingerprinted state"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL
    kind = "wall_clock"

    def findings(self, ctx: DataflowContext) -> Iterator[Finding]:
        rule = DEFAULT_TAINT_SPEC.by_kind(self.kind)
        for qualname, site in ctx.taint.sink_sites(self.kind):
            taint = ctx.taint.site_argument_taint(qualname, site)
            witness = taint.get(self.kind)
            if witness is None:
                continue
            found = self.finding(
                ctx,
                ctx.module_path(qualname),
                site.line,
                site.col,
                f"{self.kind.replace('_', '-')} value from "
                f"{witness} reaches {site.callee}() — "
                f"{rule.sink_description}",
            )
            if found is not None:
                yield found


class UnseededRngTaintDetector(WallClockTaintDetector):
    """An unseeded random stream flows into a persisted artifact: two
    runs of the same configuration persist different bytes."""

    id = "dataflow.unseeded-rng-taint"
    family = "nondeterminism"
    description = "unseeded-RNG value reaches a persisted artifact"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC
    kind = "unseeded_rng"


class UnpricedExceptionDetector(DataflowDetector):
    """A handler absorbs exceptions escaping its callees without
    re-raising, pricing them into a ResilienceLedger, or logging: the
    fault boundary silently eats failures (the paper's "no alert raised"
    symptom, root-caused as missing logic in error handling)."""

    id = "dataflow.unpriced-exception"
    family = "error_handling"
    description = (
        "callee exceptions absorbed at a fault boundary without "
        "ledger pricing or logging"
    )
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC

    def findings(self, ctx: DataflowContext) -> Iterator[Finding]:
        for (qualname, handler_index), absorbed in sorted(
            ctx.taint.absorbed.items()
        ):
            _, function = ctx.graph.functions[qualname]
            handler = function.handlers[handler_index]
            if handler.reraises or handler.prices or not absorbed:
                continue
            path = ctx.module_path(qualname)
            names = ", ".join(
                exc.split(".")[-1] for exc in sorted(absorbed)
            )
            sample = absorbed[min(absorbed)]
            found = self.finding(
                ctx,
                path,
                handler.line,
                0,
                f"handler absorbs {names} escaping its callees "
                f"({sample}) without re-raising, pricing into a "
                "ResilienceLedger, or logging",
            )
            if found is not None:
                yield found


class CrossFunctionLockCycleDetector(DataflowDetector):
    """ABBA deadlock potential where at least one edge crosses a
    function boundary — invisible to the PR-5 lexical detector, which
    only sees nesting inside a single function."""

    id = "dataflow.cross-function-lock-cycle"
    family = "concurrency"
    description = "lock-order cycle with an interprocedural edge"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.CONCURRENCY

    def findings(self, ctx: DataflowContext) -> Iterator[Finding]:
        locks = ctx.taint.lock_edges
        for members, edges in locks.cycles():
            inter = [edge for edge in edges if locks.sites[edge][2] is not None]
            if not inter:
                continue  # PR-5's lexical detector already owns it
            # Anchor the finding at the first interprocedural edge.
            outer, inner = inter[0]
            qualname, line, callee = locks.sites[outer, inner]
            order = " -> ".join(sorted(members))
            found = self.finding(
                ctx,
                ctx.module_path(qualname),
                line,
                0,
                f"cross-function lock-order cycle [{order}]: "
                f"{outer} is held while {inner} is acquired via call into "
                f"{callee}() while holding {outer} — another thread taking "
                "the opposite order deadlocks",
            )
            if found is not None:
                yield found


class EscapingHandleDetector(DataflowDetector):
    """A function returns an open file handle and a caller neither
    closes, returns, stores, nor context-manages it: the descriptor
    leaks when the paper's ecosystem-interaction bugs bite (fd
    exhaustion, unflushed buffers on crash)."""

    id = "dataflow.escaping-handle"
    family = "resources"
    description = "returned open handle leaks at a call site"
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def findings(self, ctx: DataflowContext) -> Iterator[Finding]:
        for qualname, site, target, witness in (
            ctx.taint.leaked_handle_sites()
        ):
            path = ctx.module_path(qualname)
            found = self.finding(
                ctx,
                path,
                site.line,
                site.col,
                f"open handle returned by {target}() ({witness}) is "
                f"never closed in {qualname} — close it or wrap the "
                "call in a with block",
            )
            if found is not None:
                yield found


#: Canonical detector order (and therefore canonical report order ties).
DATAFLOW_DETECTOR_TYPES: tuple[type[DataflowDetector], ...] = (
    WallClockTaintDetector,
    UnseededRngTaintDetector,
    UnpricedExceptionDetector,
    CrossFunctionLockCycleDetector,
    EscapingHandleDetector,
)


def default_dataflow_detectors() -> list[DataflowDetector]:
    return [cls() for cls in DATAFLOW_DETECTOR_TYPES]


def dataflow_detector_ids() -> list[str]:
    return [cls.id for cls in DATAFLOW_DETECTOR_TYPES]
