"""The sdnlint analyzer: load -> per-module walks -> cross-module passes.

The engine itself is stdlib-``ast`` only: scanning never imports or
executes the code under analysis, so syntactically valid modules with
missing dependencies still lint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro._collector import _collector_paused
from repro.errors import StaticAnalysisError
from repro.staticanalysis.checks import AnalysisContext, Detector, default_detectors
from repro.staticanalysis.loader import load_paths
from repro.staticanalysis.model import AnalysisReport, Finding


class Analyzer:
    """Run a set of detectors over Python source trees.

    Parameters
    ----------
    detectors:
        Detector instances to run; defaults to the full registry.
    root:
        Paths in findings are reported relative to this directory
        (default: the current working directory).
    """

    def __init__(
        self,
        detectors: Sequence[Detector] | None = None,
        *,
        root: str | Path | None = None,
    ) -> None:
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        seen: set[str] = set()
        for detector in self.detectors:
            if not detector.id:
                raise StaticAnalysisError(
                    f"detector {type(detector).__name__} has no id"
                )
            if detector.id in seen:
                raise StaticAnalysisError(f"duplicate detector id {detector.id!r}")
            seen.add(detector.id)
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
    paths: Iterable[str | Path],
    *,
    detectors: Sequence[Detector] | None = None,
    root: str | Path | None = None,
) -> AnalysisReport:
    """One-shot convenience wrapper around :class:`Analyzer`."""
    return Analyzer(detectors, root=root).run(paths)
