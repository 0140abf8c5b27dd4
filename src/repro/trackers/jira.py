"""JIRA-like tracker substrate (ONOS, CORD).

Supports the query surface the paper's mining needs: filter by project,
severity, status, time window; link Gerrit changes; compute per-quarter
creation histograms (the "burst of bugs around release dates" observation).
"""

from __future__ import annotations

from datetime import datetime
from typing import Iterable, Iterator

from repro.errors import TrackerError
from repro.trackers.models import BugReport, GerritChange, IssueStatus, Severity


class JiraTracker:
    """In-memory JIRA instance hosting one or more projects.

    Issue keys follow JIRA convention ``<PROJECT>-<n>``; the tracker assigns
    sequence numbers per project on :meth:`file`.
    """

    def __init__(self, projects: Iterable[str]) -> None:
        # Sorted tuple, not a set: trackers travel inside pickled corpus
        # checkpoints, and set iteration order depends on PYTHONHASHSEED —
        # a hash-ordered container would make checkpoint bytes differ
        # across processes.
        self._projects = tuple(sorted({p.upper() for p in projects}))
        if not self._projects:
            raise TrackerError("a JIRA tracker needs at least one project")
        self._issues: dict[str, BugReport] = {}
        self._sequence: dict[str, int] = {p: 0 for p in self._projects}

    @property
    def projects(self) -> frozenset[str]:
        return frozenset(self._projects)

    def __len__(self) -> int:
        return len(self._issues)

    def __iter__(self) -> Iterator[BugReport]:
        return iter(self._issues.values())

    def file(
        self,
        project: str,
        *,
        title: str,
        description: str,
        created_at: datetime,
        severity: Severity,
    ) -> BugReport:
        """Create a new issue and return it.  JIRA requires a severity."""
        project = project.upper()
        if project not in self._projects:
            raise TrackerError(f"unknown project {project!r}")
        self._sequence[project] += 1
        bug_id = f"{project}-{self._sequence[project]}"
        report = BugReport(
            bug_id=bug_id,
            controller=project,
            title=title,
            description=description,
            created_at=created_at,
            severity=severity,
        )
        self._issues[bug_id] = report
        return report

    def add(self, report: BugReport) -> None:
        """Register a pre-built report (used by the corpus generator)."""
        project = report.bug_id.rsplit("-", 1)[0].upper()
        if project not in self._projects:
            raise TrackerError(
                f"issue {report.bug_id!r} does not belong to any project of this "
                f"tracker ({sorted(self._projects)})"
            )
        if report.severity is None:
            raise TrackerError("JIRA issues must carry a severity")
        if report.bug_id in self._issues:
            raise TrackerError(f"duplicate issue id {report.bug_id!r}")
        self._issues[report.bug_id] = report
        seq = int(report.bug_id.rsplit("-", 1)[1])
        self._sequence[project] = max(self._sequence[project], seq)

    def get(self, bug_id: str) -> BugReport:
        try:
            return self._issues[bug_id]
        except KeyError:
            raise TrackerError(f"no such issue {bug_id!r}") from None

    def resolve(self, bug_id: str, resolved_at: datetime) -> None:
        """Mark an issue closed with a resolution timestamp."""
        report = self.get(bug_id)
        if resolved_at < report.created_at:
            raise TrackerError(
                f"{bug_id}: resolution {resolved_at} precedes creation "
                f"{report.created_at}"
            )
        report.resolved_at = resolved_at
        report.status = IssueStatus.CLOSED

    def link_gerrit(self, bug_id: str, change: GerritChange) -> None:
        """Attach a Gerrit change to an issue."""
        self.get(bug_id).gerrit_changes.append(change)

    # -- query surface ------------------------------------------------------
    def search(
        self,
        *,
        project: str | None = None,
        min_severity: Severity | None = None,
    ) -> list[BugReport]:
        """Filter issues; all criteria are conjunctive."""
        severity_rank = {s: i for i, s in enumerate(Severity)}  # BLOCKER=0 ...
        results = []
        for report in self._issues.values():
            if project is not None and not report.bug_id.startswith(project.upper() + "-"):
                continue
            if min_severity is not None:
                assert report.severity is not None
                if severity_rank[report.severity] > severity_rank[min_severity]:
                    continue
            results.append(report)
        return sorted(results, key=lambda r: (r.created_at, r.bug_id))

    def quarterly_histogram(self, project: str | None = None) -> dict[str, int]:
        """Issue counts per calendar quarter, e.g. ``{"2017-Q1": 31, ...}``."""
        histogram: dict[str, int] = {}
        for report in self.search(project=project):
            quarter = (report.created_at.month - 1) // 3 + 1
            key = f"{report.created_at.year}-Q{quarter}"
            histogram[key] = histogram.get(key, 0) + 1
        return dict(sorted(histogram.items()))
