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
