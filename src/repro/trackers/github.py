"""GitHub-like issue tracker substrate (FAUCET).

Deliberately *less* informative than JIRA, matching SS VIII: issues have
free-form labels but no structured severity field, and closing an issue does
not expose a resolution timestamp to the miner.  Severity must be recovered
with the keyword approach (:mod:`repro.trackers.severity`).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import TrackerError
from repro.trackers.models import BugReport


class GithubTracker:
    """In-memory GitHub repository issue list.

    Issue ids are ``<repo>-<n>`` with a repo-wide sequence (GitHub numbers
    issues and pull requests from one counter; we model issues only).
    """

    def __init__(self, repo: str) -> None:
        if not repo:
            raise TrackerError("repo name must be non-empty")
        self.repo = repo
        self._issues: dict[str, BugReport] = {}

    def __len__(self) -> int:
        return len(self._issues)

    def __iter__(self) -> Iterator[BugReport]:
        return iter(self._issues.values())

    def add(self, report: BugReport) -> None:
        """Register a pre-built report (used by the corpus generator).

        Enforces the GitHub information model: no structured severity and no
        resolution timestamp.
        """
        if not report.bug_id.startswith(self.repo + "-"):
            raise TrackerError(
                f"issue {report.bug_id!r} does not belong to repo {self.repo!r}"
            )
        if report.severity is not None:
            raise TrackerError("GitHub issues carry no structured severity")
        if report.resolved_at is not None:
            raise TrackerError(
                "GitHub tracker does not expose resolution timestamps (SS VIII)"
            )
        if report.bug_id in self._issues:
            raise TrackerError(f"duplicate issue id {report.bug_id!r}")
        self._issues[report.bug_id] = report

    def get(self, bug_id: str) -> BugReport:
        try:
            return self._issues[bug_id]
        except KeyError:
            raise TrackerError(f"no such issue {bug_id!r}") from None
