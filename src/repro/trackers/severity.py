"""Keyword-based severity extraction for GitHub issues (SS II-B).

FAUCET's GitHub tracker has no severity field; the paper recovers severity
"using a keyword approach" over title + body + labels.  This extractor scores
weighted keyword hits and maps the score to the JIRA severity ladder.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.trackers.models import BugReport, Severity

#: Default keyword weights.  Higher total score => more severe.
DEFAULT_KEYWORDS: Mapping[str, float] = {
    # Catastrophic signals.
    "crash": 3.0,
    "crashed": 3.0,
    "crashes": 3.0,
    "outage": 3.0,
    "down": 1.5,
    "unusable": 3.0,
    "data loss": 3.5,
    "security": 3.0,
    "vulnerability": 3.0,
    "dos": 2.5,
    "denial of service": 3.0,
    "deadlock": 3.0,
    "panic": 3.0,
    "fatal": 3.0,
    "traceback": 2.0,
    "exception": 1.5,
    "segfault": 3.5,
    # Serious-but-contained signals.
    "critical": 2.5,
    "severe": 2.5,
    "blocker": 3.0,
    "broken": 2.0,
    "fails": 1.5,
    "failure": 1.5,
    "wrong": 1.0,
    "incorrect": 1.0,
    "regression": 2.0,
    "stuck": 2.0,
    "hang": 2.5,
    "hangs": 2.5,
    "freeze": 2.5,
    "leak": 2.0,
    # Fail-stop phrasing variants.
    "crashed": 3.0,
    "core dumps": 3.0,
    "aborts": 2.5,
    "exits": 2.5,
    "dies": 2.5,
    "restart": 1.5,
    "null pointer": 2.5,
    "out of memory": 3.0,
    # Byzantine / gray-failure phrasing.
    "partial outage": 2.5,
    "gray failure": 2.5,
    "misbehaves": 2.0,
    "partially fails": 2.5,
    "silently": 1.0,
    "blackhole": 2.5,
    "loop": 1.5,
    "disagrees": 1.5,
    "dropped": 1.5,
    # Stall phrasing.
    "freezes": 2.5,
    "stalls": 2.5,
    "stops responding": 2.5,
    "unresponsive": 2.5,
    "blocked": 1.5,
    "waiting": 1.0,
    # Performance phrasing.
    "latency": 1.5,
    "throughput": 1.5,
    "regressed": 2.0,
    "lags": 1.5,
    "degrades": 1.5,
    "race": 1.5,
    # Mild signals.
    "slow": 1.0,
    "degraded": 1.0,
    "warning": 0.5,
    "typo": -1.0,
    "cosmetic": -1.5,
    "documentation": -1.0,
}

#: Labels that force a severity regardless of text.
LABEL_OVERRIDES: Mapping[str, Severity] = {
    "critical": Severity.CRITICAL,
    "blocker": Severity.BLOCKER,
    "p0": Severity.BLOCKER,
    "p1": Severity.CRITICAL,
    "enhancement": Severity.TRIVIAL,
}


class KeywordSeverityExtractor:
    """Estimate a :class:`Severity` for unlabeled (GitHub) bug reports."""

    #: Score floors of each severity, strictly decreasing.
    blocker_threshold = 5.0
    critical_threshold = 2.5
    major_threshold = 1.0
    minor_threshold = 0.0

    def __init__(self) -> None:
        # Pre-compile one pattern per keyword, word-bounded, case-insensitive.
        self._patterns = {
            kw: re.compile(rf"\b{re.escape(kw)}\b", re.IGNORECASE)
            for kw in DEFAULT_KEYWORDS
        }

    def score(self, report: BugReport) -> float:
        """Weighted keyword hit score over title + description.

        Each keyword counts once per report (presence, not frequency), so a
        long stack trace doesn't inflate severity.
        """
        text = report.text
        total = 0.0
        for keyword, weight in DEFAULT_KEYWORDS.items():
            if self._patterns[keyword].search(text):
                total += weight
        return total

    def extract(self, report: BugReport) -> Severity:
        """Severity estimate for ``report`` (labels override text)."""
        for label in report.labels:
            override = LABEL_OVERRIDES.get(label.lower())
            if override is not None:
                return override
        value = self.score(report)
        if value >= self.blocker_threshold:
            return Severity.BLOCKER
        if value >= self.critical_threshold:
            return Severity.CRITICAL
        if value >= self.major_threshold:
            return Severity.MAJOR
        if value >= self.minor_threshold:
            return Severity.MINOR
        return Severity.TRIVIAL

    def is_critical(self, report: BugReport) -> bool:
        """True if the estimated severity is blocker or critical."""
        return self.extract(report).is_critical
