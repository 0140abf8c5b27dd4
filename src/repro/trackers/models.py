"""Data models shared by the JIRA-like and GitHub-like trackers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Mapping


class Severity(enum.Enum):
    """JIRA-style severity ladder.  The paper studies BLOCKER+CRITICAL."""

    BLOCKER = "blocker"
    CRITICAL = "critical"
    MAJOR = "major"
    MINOR = "minor"
    TRIVIAL = "trivial"

    @property
    def is_critical(self) -> bool:
        """True for the severities the paper counts as 'critical'."""
        return self in (Severity.BLOCKER, Severity.CRITICAL)


class IssueStatus(enum.Enum):
    """Issue lifecycle states common to both trackers."""

    OPEN = "open"
    IN_PROGRESS = "in_progress"
    RESOLVED = "resolved"
    CLOSED = "closed"

    @property
    def is_closed(self) -> bool:
        return self in (IssueStatus.RESOLVED, IssueStatus.CLOSED)


@dataclass(frozen=True)
class Comment:
    """A discussion comment on an issue."""

    author: str
    created_at: datetime
    body: str


@dataclass(frozen=True)
class GerritChange:
    """A Gerrit code-review change linked to a JIRA issue.

    ``files_changed`` records paths touched by the fix; ``insertions`` /
    ``deletions`` give the patch size.  The paper uses these links to verify
    fixes manually.
    """

    change_id: str
    subject: str
    merged_at: datetime | None
    files_changed: tuple[str, ...] = ()
    insertions: int = 0
    deletions: int = 0


@dataclass
class BugReport:
    """One bug report, tracker-agnostic.

    ``severity`` is ``None`` for GitHub issues (no structured field);
    ``resolved_at`` is ``None`` while the bug is open *and* for GitHub issues
    where the tracker does not expose resolution timestamps (SS VIII).
    """

    bug_id: str
    controller: str
    title: str
    description: str
    created_at: datetime
    status: IssueStatus = IssueStatus.OPEN
    severity: Severity | None = None
    resolved_at: datetime | None = None
    reporter: str = "unknown"
    assignee: str | None = None
    components: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    comments: list[Comment] = field(default_factory=list)
    gerrit_changes: list[GerritChange] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def text(self) -> str:
        """Title + description, the text the NLP pipeline consumes."""
        return f"{self.title}\n{self.description}"

    @property
    def resolution_time(self) -> timedelta | None:
        """Wall-clock time from creation to resolution, if known."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.created_at

    @property
    def resolution_days(self) -> float | None:
        """Resolution time in days (fractional), if known."""
        delta = self.resolution_time
        if delta is None:
            return None
        return delta.total_seconds() / 86400.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (comments/gerrit flattened)."""
        return {
            "bug_id": self.bug_id,
            "controller": self.controller,
            "title": self.title,
            "description": self.description,
            "created_at": self.created_at.isoformat(),
            "status": self.status.value,
            "severity": self.severity.value if self.severity else None,
            "resolved_at": self.resolved_at.isoformat() if self.resolved_at else None,
            "reporter": self.reporter,
            "assignee": self.assignee,
            "components": list(self.components),
            "labels": list(self.labels),
            "comments": [
                {
                    "author": c.author,
                    "created_at": c.created_at.isoformat(),
                    "body": c.body,
                }
                for c in self.comments
            ],
            "gerrit_changes": [
                {
                    "change_id": g.change_id,
                    "subject": g.subject,
                    "merged_at": g.merged_at.isoformat() if g.merged_at else None,
                    "files_changed": list(g.files_changed),
                    "insertions": g.insertions,
                    "deletions": g.deletions,
                }
                for g in self.gerrit_changes
            ],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BugReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            bug_id=data["bug_id"],
            controller=data["controller"],
            title=data["title"],
            description=data["description"],
            created_at=datetime.fromisoformat(data["created_at"]),
            status=IssueStatus(data["status"]),
            severity=Severity(data["severity"]) if data.get("severity") else None,
            resolved_at=(
                datetime.fromisoformat(data["resolved_at"])
                if data.get("resolved_at")
                else None
            ),
            reporter=data.get("reporter", "unknown"),
            assignee=data.get("assignee"),
            components=tuple(data.get("components", ())),
            labels=tuple(data.get("labels", ())),
            comments=[
                Comment(
                    author=c["author"],
                    created_at=datetime.fromisoformat(c["created_at"]),
                    body=c["body"],
                )
                for c in data.get("comments", [])
            ],
            gerrit_changes=[
                GerritChange(
                    change_id=g["change_id"],
                    subject=g["subject"],
                    merged_at=(
                        datetime.fromisoformat(g["merged_at"])
                        if g.get("merged_at")
                        else None
                    ),
                    files_changed=tuple(g.get("files_changed", ())),
                    insertions=g.get("insertions", 0),
                    deletions=g.get("deletions", 0),
                )
                for g in data.get("gerrit_changes", [])
            ],
            metadata=dict(data.get("metadata", {})),
        )
