"""Run-directory observability report (the ``repro metrics`` backend).

A run directory accumulates two kinds of evidence as the runtime works:

* **journals** — PR-4 WAL files (``*.jsonl`` under a ``.journal/``
  directory, a fold's ``journal.jsonl``, bare ``*.journal`` files like the
  serving request log, or any explicitly named journal file), from which
  span trees are derived;
* **metrics exports** — ``*metrics*.jsonl`` files written by the
  serving daemon, fuzzing campaign, or benches in the registry's JSONL
  format.

:func:`collect_run` scans a directory for both (sorted traversal, so
reports are deterministic for a given tree) and :func:`render_text` /
:func:`render_json` turn the collection into the human and machine
report shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import (
    STATUS_TRUNCATED,
    Span,
    spans_from_journal,
)
from repro.recovery.checkpoint import JOURNAL_DIRNAME
from repro.recovery.fold import JOURNAL_FILENAME
from repro.recovery.journal import JournalError
from repro.reporting.tables import ascii_table


@dataclass
class RunReport:
    """Everything :func:`collect_run` found in one run directory."""

    root: Path
    #: journal path -> derived spans (sorted by path).
    traces: dict[Path, list[Span]] = field(default_factory=dict)
    #: metrics file path -> rebuilt registry (sorted by path).
    metrics: dict[Path, MetricsRegistry] = field(default_factory=dict)
    #: files that looked relevant but could not be parsed (path, reason).
    skipped: list[tuple[Path, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.traces and not self.metrics


def _iter_journals(root: Path) -> list[Path]:
    found = [
        path
        for path in sorted(root.rglob("*.jsonl"))
        if path.parent.name == JOURNAL_DIRNAME or path.name == JOURNAL_FILENAME
    ]
    # The serving request log journals to a bare `*.journal` file (the
    # glob also matches `.journal` directories themselves — skip those).
    found.extend(
        path for path in sorted(root.rglob("*.journal")) if path.is_file()
    )
    if not found and root.suffix == ".jsonl" and root.is_file():
        found = [root]
    return found


def _iter_metric_files(root: Path) -> list[Path]:
    return [
        path
        for path in sorted(root.rglob("*.jsonl"))
        if "metrics" in path.name and path.parent.name != JOURNAL_DIRNAME
    ]


def collect_run(root: str | Path) -> RunReport:
    """Scan ``root`` (a run dir, or a single journal file) for evidence."""
    root = Path(root)
    if not root.exists():
        raise ObservabilityError(f"{root}: run directory does not exist")
    report = RunReport(root=root)
    if root.is_file():
        journals = [root] if root.suffix in (".jsonl", ".journal") else []
        metric_files: list[Path] = []
        if "metrics" in root.name and root.suffix == ".jsonl":
            metric_files, journals = journals, []
    else:
        journals = _iter_journals(root)
        metric_files = _iter_metric_files(root)
    for path in journals:
        try:
            report.traces[path] = spans_from_journal(path)
        except (JournalError, ObservabilityError) as exc:  # sdnlint: disable=dataflow.unpriced-exception (skips land in report.skipped, rendered and serialized)
            report.skipped.append((path, str(exc)))
    for path in metric_files:
        try:
            report.metrics[path] = MetricsRegistry.from_jsonl(
                path.read_text(encoding="utf-8")
            )
        except ObservabilityError as exc:  # sdnlint: disable=dataflow.unpriced-exception (skips land in report.skipped, rendered and serialized)
            report.skipped.append((path, str(exc)))
    return report


def _span_rows(spans: list[Span]) -> list[list[object]]:
    rows: list[list[object]] = []
    for span in spans:
        rows.append(
            [
                span.name,
                span.kind,
                span.attempt,
                span.start,
                "-" if span.end is None else span.end,
                "-" if span.duration is None else span.duration,
                span.status,
                span.parent_id or "-",
            ]
        )
    return rows


def _metric_rows(registry: MetricsRegistry) -> list[list[object]]:
    rows: list[list[object]] = []
    for sample in registry.to_dicts():
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(sample["labels"].items())
        )
        if sample["type"] == "histogram":
            value = f"count={sample['count']} sum={sample['sum']:g}"
        else:
            value = f"{sample['value']:g}"
        rows.append([sample["name"], sample["type"], labels or "-", value])
    return rows


def render_text(report: RunReport) -> str:
    """Human-readable report: one span table per journal, one metric
    table per export, truncated-span count called out explicitly."""
    sections: list[str] = [f"observability report: {report.root}"]
    for path, spans in sorted(report.traces.items()):
        truncated = sum(1 for s in spans if s.status == STATUS_TRUNCATED)
        title = f"\ntrace {path.name} ({len(spans)} spans"
        title += f", {truncated} truncated)" if truncated else ")"
        sections.append(title)
        sections.append(
            ascii_table(
                ["span", "kind", "attempt", "start", "end", "dur",
                 "status", "parent"],
                _span_rows(spans),
            )
        )
    for path, registry in sorted(report.metrics.items()):
        sections.append(f"\nmetrics {path.name}")
        sections.append(
            ascii_table(
                ["metric", "type", "labels", "value"],
                _metric_rows(registry),
            )
        )
    for path, reason in report.skipped:
        sections.append(f"\nskipped {path}: {reason}")
    if report.empty:
        sections.append("no journals or metrics exports found")
    return "\n".join(sections) + "\n"


def render_json(report: RunReport) -> str:
    """Machine-readable report mirroring :func:`render_text`."""
    payload: dict[str, Any] = {
        "root": str(report.root),
        "traces": {
            str(path): [span.to_dict() for span in spans]
            for path, spans in sorted(report.traces.items())
        },
        "metrics": {
            str(path): registry.to_dicts()
            for path, registry in sorted(report.metrics.items())
        },
        "skipped": [
            {"path": str(path), "reason": reason}
            for path, reason in report.skipped
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
