"""Commit and history models."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterable, Iterator


class Subsystem(enum.Enum):
    """Fig 11's three functional subsystems of a controller codebase."""

    CONFIGURATION = "configuration"
    NETWORK_FUNCTIONALITY = "network_functionality"
    EXTERNAL_ABSTRACTION = "external_abstraction"


@dataclass(frozen=True)
class Commit:
    """One commit: metadata plus the files it touched."""

    sha: str
    author: str
    date: datetime
    message: str
    files: tuple[str, ...]
    insertions: int = 0
    deletions: int = 0

    def touches(self, prefix: str) -> bool:
        """True if any changed file path starts with ``prefix``."""
        return any(f.startswith(prefix) for f in self.files)


class CommitHistory:
    """An ordered (by date) collection of commits with query helpers."""

    def __init__(self, commits: Iterable[Commit]) -> None:
        self._commits = sorted(commits, key=lambda c: (c.date, c.sha))
        shas = [c.sha for c in self._commits]
        if len(shas) != len(set(shas)):
            raise ValueError("duplicate commit shas in history")

    def __len__(self) -> int:
        return len(self._commits)

    def __iter__(self) -> Iterator[Commit]:
        return iter(self._commits)

    def filter(self, predicate: Callable[[Commit], bool]) -> "CommitHistory":
        return CommitHistory(c for c in self._commits if predicate(c))
