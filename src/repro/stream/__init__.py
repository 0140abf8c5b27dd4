"""Fault-tolerant streaming ingestion plane for the million-bug corpus.

ROADMAP item 3: the paper mines a fixed April-2020 snapshot; this package
scales the same analyses to an unbounded stream of tracker events that
arrives exactly as the paper's catalog predicts it will — late, duplicated,
reordered, malformed, and from upstreams that flap.  The pipeline composes
the primitives already in-tree instead of reinventing them: PR-1
retry/backoff + circuit breakers price every recovery action into the
:class:`~repro.resilience.ledger.ResilienceLedger`, PR-4
:func:`~repro.recovery.fold.fold_batches` makes every batch a
WAL-committed checkpoint so SIGKILL at any event boundary resumes to a
bit-identical state digest, and PR-8 metrics expose consumer lag, DLQ
depth, dedup hits, and events/s.

Module map:

- :mod:`repro.stream.events` — the append-only tracker event model with
  canonical digests and strict/lenient wire parsing;
- :mod:`repro.stream.source` — the synthetic event source, a
  pure function of (seed, index) that scales to millions of events in
  O(1) memory;
- :mod:`repro.stream.flaky` — the seeded flaky-source wrapper injecting
  outages, rate limits, corruption, duplicates, and reordering;
- :mod:`repro.stream.dlq` — digest-keyed dead-letter queue, one
  ``batch-NNNN.jsonl`` file of records, reasons and delivery counts per
  batch, with a lenient replay path;
- :mod:`repro.stream.state` — bounded-memory, commutative-idempotent
  analytics state (dedup set, LWW bug registers, windowed distributions);
- :mod:`repro.stream.online` — hashing-trick vectorizer + ``partial_fit``
  Pegasos OvR SVM + rolling symptom×root-cause distributions;
- :mod:`repro.stream.ingest` — the journaled pipeline tying it together.
"""

from repro.stream.dlq import DeadLetterQueue
from repro.stream.events import (
    EVENT_TYPES,
    TrackerEvent,
    parse_wire,
)
from repro.stream.flaky import FaultMix, FlakySource
from repro.stream.ingest import (
    IngestConfig,
    IngestReport,
    replay_dlq,
    run_ingest,
    state_metrics,
)
from repro.stream.online import (
    HashingVectorizer,
    OnlineLinearSVM,
    RollingDistribution,
)
from repro.stream.source import synthetic_event
from repro.stream.state import StreamState, load_state, save_state

__all__ = [
    "EVENT_TYPES",
    "DeadLetterQueue",
    "FaultMix",
    "FlakySource",
    "HashingVectorizer",
    "IngestConfig",
    "IngestReport",
    "OnlineLinearSVM",
    "RollingDistribution",
    "StreamState",
    "TrackerEvent",
    "load_state",
    "parse_wire",
    "replay_dlq",
    "run_ingest",
    "save_state",
    "state_metrics",
    "synthetic_event",
]
