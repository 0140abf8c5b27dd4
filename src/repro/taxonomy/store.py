"""Persistent store of manual bug labels keyed by bug id."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.errors import TaxonomyError
from repro.taxonomy.label import BugLabel


class LabelStore:
    """Maps bug ids (e.g. ``"ONOS-5992"``) to :class:`BugLabel` instances.

    Mirrors the paper's manually labeled dataset: the authors hand-label 50
    closed bugs per controller and keep the labels alongside the tracker data.
    """

    def __init__(self, labels: Mapping[str, BugLabel] | None = None) -> None:
        self._labels: dict[str, BugLabel] = dict(labels or {})

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, bug_id: str) -> bool:
        return bug_id in self._labels

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def get(self, bug_id: str) -> BugLabel:
        """Return the label for ``bug_id`` or raise :class:`TaxonomyError`."""
        try:
            return self._labels[bug_id]
        except KeyError:
            raise TaxonomyError(f"no label recorded for bug {bug_id!r}") from None

    def add(self, bug_id: str, label: BugLabel) -> None:
        """Record a label; a bug is labeled at most once."""
        if bug_id in self._labels:
            raise TaxonomyError(f"bug {bug_id!r} is already labeled")
        self._labels[bug_id] = label

    def items(self) -> Iterable[tuple[str, BugLabel]]:
        return self._labels.items()

    def subset(self, bug_ids: Iterable[str]) -> "LabelStore":
        """A new store restricted to ``bug_ids`` (missing ids are errors)."""
        return LabelStore({bug_id: self.get(bug_id) for bug_id in bug_ids})

    def save(self, path: str | Path) -> None:
        """Write the store as a JSON object keyed by bug id."""
        payload = {bug_id: label.to_dict() for bug_id, label in self._labels.items()}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "LabelStore":
        """Read a store previously written by :meth:`save`."""
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise TaxonomyError(f"label file {path} must contain a JSON object")
        return cls({bug_id: BugLabel.from_dict(data) for bug_id, data in raw.items()})
