"""The sdnlint analyzer: load -> per-module walks -> cross-module passes.

The engine itself is stdlib-``ast`` only: scanning never imports or
executes the code under analysis, so syntactically valid modules with
missing dependencies still lint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro._collector import _collector_paused
from repro.staticanalysis.checks import AnalysisContext, default_detectors
from repro.staticanalysis.loader import load_paths
from repro.staticanalysis.model import AnalysisReport, Finding


class Analyzer:
    """Run every registered detector over Python source trees.

    Parameters
    ----------
    root:
        Paths in findings are reported relative to this directory
        (default: the current working directory).
    """

    def __init__(self, *, root: str | Path | None = None) -> None:
        self.detectors = default_detectors()
        self.root = Path(root) if root is not None else Path.cwd()

    @_collector_paused()
    def run(self, paths: Iterable[str | Path]) -> AnalysisReport:
        """Analyze every ``.py`` file under ``paths``."""
        modules = load_paths(paths)
        ctx = AnalysisContext(modules=modules, root=self.root.resolve())
        ctx.index()
        findings: list[Finding] = []
        for module in modules:
            for detector in self.detectors:
                findings.extend(detector.check_module(module, ctx))
        for detector in self.detectors:
            findings.extend(detector.finalize(ctx))
        findings.sort(key=Finding.sort_key)
        return AnalysisReport(
            root=str(ctx.root),
            findings=findings,
            modules_scanned=len(modules),
        )


def run_lint(
    paths: Iterable[str | Path], *, root: str | Path | None = None
) -> AnalysisReport:
    """One-shot convenience wrapper around :class:`Analyzer`."""
    return Analyzer(root=root).run(paths)
