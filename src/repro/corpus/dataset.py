"""Labeled-bug dataset container used by analyses and the NLP pipeline."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import CorpusError
from repro.taxonomy import BugLabel
from repro.trackers.models import BugReport


@dataclass(frozen=True)
class LabeledBug:
    """A bug report together with its ground-truth taxonomy label."""

    report: BugReport
    label: BugLabel

    @property
    def bug_id(self) -> str:
        return self.report.bug_id

    @property
    def controller(self) -> str:
        return self.report.controller


class BugDataset:
    """An ordered collection of :class:`LabeledBug` with query helpers."""

    def __init__(self, bugs: Iterable[LabeledBug]) -> None:
        self._bugs = list(bugs)
        seen: set[str] = set()
        for bug in self._bugs:
            if bug.bug_id in seen:
                raise CorpusError(f"duplicate bug id {bug.bug_id!r} in dataset")
            seen.add(bug.bug_id)

    def __len__(self) -> int:
        return len(self._bugs)

    def __iter__(self) -> Iterator[LabeledBug]:
        return iter(self._bugs)

    def __getitem__(self, index: int) -> LabeledBug:
        return self._bugs[index]

    @property
    def controllers(self) -> list[str]:
        """Distinct controller names, sorted."""
        return sorted({b.controller for b in self._bugs})

    def by_controller(self, controller: str) -> "BugDataset":
        """Subset for one controller."""
        return BugDataset(b for b in self._bugs if b.controller == controller)

    def filter(self, predicate: Callable[[LabeledBug], bool]) -> "BugDataset":
        """Subset matching an arbitrary predicate."""
        return BugDataset(b for b in self._bugs if predicate(b))

    def texts(self) -> list[str]:
        """Title+description text per bug, in dataset order."""
        return [b.report.text for b in self._bugs]

    def labels(self, dimension: str) -> list[str]:
        """Tag values for one taxonomy dimension, in dataset order.

        ``dimension`` is one of ``bug_type``, ``root_cause``, ``symptom``,
        ``fix``, ``trigger`` (or a refinement name).  Missing refinements
        raise — callers should filter first.
        """
        values = []
        for bug in self._bugs:
            tag = bug.label.to_dict().get(dimension)
            if tag is None:
                raise CorpusError(
                    f"bug {bug.bug_id} has no tag for dimension {dimension!r}; "
                    "filter the dataset before extracting refinements"
                )
            values.append(tag)
        return values

    def sample(self, n: int, *, seed: int = 0) -> "BugDataset":
        """Uniform random subset of size ``n`` (without replacement)."""
        if n > len(self._bugs):
            raise CorpusError(f"cannot sample {n} from {len(self._bugs)} bugs")
        rng = random.Random(seed)
        picked = rng.sample(self._bugs, n)
        return BugDataset(sorted(picked, key=lambda b: b.bug_id))

    def manual_sample(self, per_controller: int = 50, *, seed: int = 0) -> "BugDataset":
        """The paper's manual-analysis sample: ``per_controller`` random
        *closed* bugs from each controller (SS II-B)."""
        parts: list[LabeledBug] = []
        for controller in self.controllers:
            closed = self.by_controller(controller).filter(
                lambda b: b.report.status.is_closed
            )
            parts.extend(closed.sample(per_controller, seed=seed))
        return BugDataset(parts)

    def split_counts(self) -> dict[str, int]:
        """Bug count per controller."""
        counts: dict[str, int] = {}
        for bug in self._bugs:
            counts[bug.controller] = counts.get(bug.controller, 0) + 1
        return dict(sorted(counts.items()))
