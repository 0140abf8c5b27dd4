"""Finding model for sdnlint: severity, taxonomy tags, and the report.

Every finding carries two tags from the paper's Table I taxonomy — the
:class:`~repro.taxonomy.BugType` the latent bug would have (deterministic
vs non-deterministic) and the :class:`~repro.taxonomy.RootCause` class it
would be filed under — so a lint run reads as a *predicted bug census* of
the scanned source, in the study's own vocabulary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.taxonomy import BugType, RootCause


class Severity(enum.Enum):
    """Finding severity, ordered: info < warning < error."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __ge__(self, other: "Severity") -> bool:  # type: ignore[override]
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank >= other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


def relative_path(path: str | Path, root: Path) -> str:
    """``path`` relative to ``root`` as posix, or whole when outside it: the
    path findings and witnesses name, so reports match across checkouts."""
    try:
        return Path(path).relative_to(root).as_posix()
    except ValueError:
        return Path(path).as_posix()


@dataclass(frozen=True)
class Finding:
    """One bug-pattern match at a source location."""

    detector: str  # detector id, e.g. "unseeded-random"
    message: str
    path: str  # repo-relative posix path where possible
    line: int
    col: int
    severity: Severity
    bug_type: BugType
    root_cause: RootCause
    #: True when the finding matched the committed baseline (known debt).
    suppressed: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def suppress(self) -> "Finding":
        return replace(self, suppressed=True)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.detector, self.message)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "bug_type": self.bug_type.value,
            "root_cause": self.root_cause.value,
            "suppressed": self.suppressed,
        }


@dataclass
class AnalysisReport:
    """All findings from one analysis run, in stable (path, line) order."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def active(self) -> list[Finding]:
        """Findings not suppressed by the baseline."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts_by_severity(self) -> dict[str, int]:
        counts = {sev.value: 0 for sev in Severity}
        for finding in self.active:
            counts[finding.severity.value] += 1
        return counts

    def counts_by_detector(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            counts[finding.detector] = counts.get(finding.detector, 0) + 1
        return dict(sorted(counts.items()))

    def counts_by_root_cause(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            key = finding.root_cause.value
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "modules_scanned": self.modules_scanned,
            "counts": {
                "severity": self.counts_by_severity(),
                "detector": self.counts_by_detector(),
                "root_cause": self.counts_by_root_cause(),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
        }
