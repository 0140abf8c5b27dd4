"""Observability core: metrics, journal-derived spans, perf trajectory.

The plane has three legs, all deterministic by construction:

* :mod:`repro.observability.metrics` — counters/gauges/histograms with
  JSONL export, clocked by an injectable (sim) clock, thread-safe under
  the WorkPool;
* :mod:`repro.observability.spans` — span trees derived from the PR-4
  run journal (the WAL already records begin/commit/skip durably, so
  tracing costs no second event stream and survives crashes);
* :mod:`repro.observability.trajectory` — the per-PR benchmark
  trajectory file with tolerance-gated regression checks
  (``repro trajectory --check``).
"""

from repro.observability.instrument import cache_to_metrics, ledger_to_metrics
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.report import (
    RunReport,
    collect_run,
    render_json,
    render_text,
)
from repro.observability.spans import (
    KIND_RUN,
    KIND_STAGE,
    STATUS_OK,
    STATUS_OPEN,
    STATUS_SKIPPED,
    STATUS_TRUNCATED,
    Span,
    SpanBuilder,
    Tracer,
    spans_from_journal,
    spans_to_jsonl,
)
from repro.observability.trajectory import (
    DEFAULT_GATES,
    GateResult,
    GateRule,
    TrajectoryStore,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_GATES",
    "Counter",
    "Gauge",
    "GateResult",
    "GateRule",
    "Histogram",
    "KIND_RUN",
    "KIND_STAGE",
    "MetricsRegistry",
    "RunReport",
    "STATUS_OK",
    "STATUS_OPEN",
    "STATUS_SKIPPED",
    "STATUS_TRUNCATED",
    "Span",
    "SpanBuilder",
    "Tracer",
    "TrajectoryStore",
    "cache_to_metrics",
    "collect_run",
    "ledger_to_metrics",
    "render_json",
    "render_text",
    "spans_from_journal",
    "spans_to_jsonl",
]
