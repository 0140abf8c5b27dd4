"""JSONL serialization for labeled bug datasets.

The writer publishes *atomically*: content lands in a temporary sibling
file, is fsync'd, and replaces the destination with ``os.replace``.  An
interrupted save therefore leaves either the previous file intact or the
new one complete — never a half-written dataset that a later load would
have to guess about.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.corpus.dataset import BugDataset, LabeledBug
from repro.errors import CorpusError
from repro.parallel.cache import atomic_write
from repro.taxonomy import BugLabel
from repro.trackers.models import BugReport


def save_dataset_jsonl(dataset: BugDataset, path: str | Path) -> None:
    """Write one ``{"report": ..., "label": ...}`` JSON object per line.

    The write is atomic: readers see the old file or the new file, never a
    prefix of the new one.
    """
    path = Path(path)

    def _write(handle) -> None:
        for bug in dataset:
            record = {"report": bug.report.to_dict(), "label": bug.label.to_dict()}
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    atomic_write(path, _write)


def load_dataset_jsonl(path: str | Path) -> BugDataset:
    """Read a dataset written by :func:`save_dataset_jsonl`.

    Files are decoded as ``utf-8-sig`` so a BOM prefix (editors and
    PowerShell redirects add one) cannot corrupt the first record; any
    malformed line — including a truncated final line from an interrupted
    writer — raises :class:`CorpusError` with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"{path}: dataset file does not exist")
    bugs: list[LabeledBug] = []
    with path.open(encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                bugs.append(
                    LabeledBug(
                        report=BugReport.from_dict(record["report"]),
                        label=BugLabel.from_dict(record["label"]),
                    )
                )
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                # TypeError/AttributeError cover structurally wrong records
                # (e.g. ``{"report": null}``) whose failure otherwise
                # surfaces deep inside from_dict without the line number.
                raise CorpusError(
                    f"{path}:{line_number}: malformed dataset record: {exc}"
                ) from exc
    return BugDataset(bugs)
