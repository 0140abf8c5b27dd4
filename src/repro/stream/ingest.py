"""The journaled ingestion pipeline: fetch, retry, dedup, apply, checkpoint.

One run is a fold over journaled batches, the fuzz campaign's shape and
loop (:func:`~repro.recovery.fold.fold_batches`):
``state' = step(state, batch)`` with ``step`` deterministic given the
config.  Each batch fetches a fixed range of blocks from the flaky source
through the PR-1 resilience stack (retry/backoff + circuit breaker on a
simulated clock, every action priced into the
:class:`~repro.resilience.ledger.ResilienceLedger`), pushes the wire
records through a bounded backpressure queue, applies them exactly-once
into :class:`~repro.stream.state.StreamState`, then snapshots atomically
and commits the snapshot digest to the PR-4 WAL journal.

Robustness invariants enforced *every batch* (violations raise, they are
never logged-and-forgotten):

- **accounting**: ``consumed == applied + deduped + dead_lettered`` —
  every delivered record is applied once, recognized as a duplicate, or
  dead-lettered with a reason; and every record a give-up abandoned is
  counted in ``lost_upstream`` with a matching ``GIVE_UP`` ledger record.
  Nothing is ever silently dropped.
- **resume identity**: the journal refuses fresh runs over existing
  journals and resumes under a different config digest; a SIGKILL at any
  journaled event boundary resumes to a bit-identical state fingerprint
  (``python -m repro.recovery.smoke --target stream`` proves it).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    RateLimitedError,
    StreamError,
    TransientSourceError,
)
from repro.ml.svm import SparseRow
from repro.parallel.cache import atomic_write
from repro.recovery.checkpoint import digest_config, open_run_journal
from repro.recovery.fold import (
    JOURNAL_FILENAME,
    commit_snapshot,
    fold_batches,
    restore_snapshot,
)
from repro.recovery.journal import EVENT_BEGIN, JournalEvent, replay_journal
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import RetryPolicy
from repro.sdnsim.clock import EventScheduler
from repro.stream.dlq import DeadLetterQueue
from repro.stream.events import TrackerEvent, parse_wire
from repro.stream.flaky import FaultMix, FlakySource
from repro.stream.online import HashingVectorizer, OnlineLinearSVM, RollingDistribution
from repro.stream.source import synthetic_event
from repro.stream.state import StreamState, load_state, save_state


@dataclass(frozen=True)
class IngestConfig:
    """Everything that identifies one ingestion run (its resume identity)."""

    seed: int = 0
    events: int = 2048
    batch: int = 512  # base events per journaled batch
    block: int = 64  # base events per fetch block
    pool: int = 5000  # distinct synthetic bug ids
    # -- fault mix (see FaultMix for rate semantics) ----------------------------
    outage_rate: float = 0.0
    outage_depth: int = 2
    rate_limit_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    # -- backpressure + resilience ----------------------------------------------
    queue_capacity: int = 256
    retry_attempts: int = 4
    retry_base_delay: float = 0.5
    breaker_threshold: float = 0.6
    breaker_window: int = 8
    breaker_min_calls: int = 4
    breaker_cooldown: float = 15.0
    # -- online learning --------------------------------------------------------
    learn: bool = True
    hash_bits: int = 12
    regularization: float = 1e-3
    window_days: int = 30

    def __post_init__(self) -> None:
        for name in ("events", "batch", "block", "pool", "queue_capacity",
                     "hash_bits"):
            if getattr(self, name) < 1:
                raise StreamError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.retry_attempts < 0:
            raise StreamError("retry_attempts must be >= 0")
        if self.retry_base_delay < 0:
            raise StreamError("retry_base_delay must be >= 0")
        if self.block > self.batch:
            raise StreamError(
                f"block ({self.block}) cannot exceed batch ({self.batch})"
            )
        # FaultMix validates the rates (raises StreamError on bad values).
        self.mix()

    def mix(self) -> FaultMix:
        return FaultMix(
            outage_rate=self.outage_rate,
            outage_depth=self.outage_depth,
            rate_limit_rate=self.rate_limit_rate,
            corrupt_rate=self.corrupt_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def digest(self) -> str:
        """Resume identity: same digest == same run."""
        return digest_config(self.to_dict())

    @property
    def n_blocks(self) -> int:
        return -(-self.events // self.block)

    @property
    def blocks_per_batch(self) -> int:
        return max(1, self.batch // self.block)

    @property
    def n_batches(self) -> int:
        return -(-self.n_blocks // self.blocks_per_batch)


@dataclass
class IngestReport:
    """What a finished (or resumed-to-finished) run produced."""

    config: IngestConfig
    state: StreamState
    run_dir: Path
    resumed: bool
    batches_executed: int
    ledger: ResilienceLedger
    sim_seconds: float
    #: ``state.fingerprint()``, as the last commit's digest.
    fingerprint: str

    @property
    def dlq_depth(self) -> int:
        return DeadLetterQueue(self.run_dir / "dlq").depth()

    def summary(self) -> str:
        state = self.state
        return (
            f"{state.consumed} records consumed -> {state.applied} applied, "
            f"{state.deduped} deduped, {state.dead_lettered} dead-lettered, "
            f"{state.lost_upstream} lost upstream "
            f"({state.retries} retries, {state.blocks_abandoned} give-ups, "
            f"{len(state.bugs)} bugs tracked)"
        )


class StreamIngest:
    """One journaled ingestion run rooted at ``run_dir``."""

    def __init__(
        self,
        config: IngestConfig,
        run_dir: str | Path,
        *,
        on_event: Callable[[JournalEvent], None] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.run_dir = Path(run_dir)
        self._on_event = on_event
        self._progress = progress or (lambda _msg: None)
        self.ledger = ResilienceLedger()
        self.scheduler = EventScheduler()
        self.source = FlakySource(
            lambda i: synthetic_event(config.seed, i, pool=config.pool),
            config.events,
            mix=config.mix(),
            seed=config.seed,
            block_size=config.block,
        )
        self.retry = RetryPolicy(
            max_attempts=config.retry_attempts,
            base_delay=config.retry_base_delay,
            multiplier=2.0,
            max_delay=60.0,
        )
        self.breaker = CircuitBreaker(
            self.scheduler,
            name="stream-source",
            failure_threshold=config.breaker_threshold,
            window=config.breaker_window,
            min_calls=config.breaker_min_calls,
            cooldown=config.breaker_cooldown,
            ledger=self.ledger,
        )
        self.dlq = DeadLetterQueue(self.run_dir / "dlq")
        self.vectorizer = HashingVectorizer(
            n_features=2 ** config.hash_bits, seed=config.seed
        )

    # -- fetching through the resilience stack ----------------------------------
    def _fetch_block(self, block: int) -> list[str] | None:
        """Fetch one block, retrying transient failures with backoff.

        Returns ``None`` when the retry budget is exhausted — the give-up
        is priced into the ledger and the caller accounts the lost records.
        All waiting happens on the simulated clock, which also drives the
        breaker's cool-down / half-open transitions.
        """
        clock = self.scheduler.clock
        attempt = 1
        while True:
            if not self.breaker.allow():
                # Open breaker: advancing past the cool-down fires the
                # scheduled half-open transition, which admits a probe.
                self.scheduler.run(until=clock.now + self.breaker.cooldown)
            try:
                return self.breaker.call(self.source.fetch, block, attempt)
            except CircuitOpenError:
                # Shed (already ledgered by the breaker); wait out the
                # cool-down and try again without consuming an attempt.
                self.scheduler.run(until=clock.now + self.breaker.cooldown)
                continue
            except TransientSourceError as exc:
                if attempt > self.retry.max_attempts:
                    lost = len(self.source.wire_block(block))
                    self.ledger.record(
                        ResilienceEvent.GIVE_UP,
                        "stream-source",
                        time=clock.now,
                        attempt=attempt,
                        detail=(
                            f"block {block}: abandoned after {attempt} "
                            f"attempts ({lost} records lost): {exc}"
                        ),
                    )
                    return None
                delay = self.retry.delay_for(attempt)
                if isinstance(exc, RateLimitedError):
                    # A throttling upstream names its own floor; honoring
                    # it is the difference between backoff and hammering.
                    delay = max(delay, exc.retry_after)
                    self.state.rate_limited += 1
                self.state.retries += 1
                self.ledger.record(
                    ResilienceEvent.RETRY,
                    "stream-source",
                    time=clock.now,
                    attempt=attempt,
                    delay=delay,
                    detail=f"block {block}: {exc}",
                )
                self.scheduler.run(until=clock.now + delay)
                attempt += 1

    # -- exactly-once application -----------------------------------------------
    def _process(
        self, raw: str, train: list[tuple[SparseRow, str]]
    ) -> None:
        state = self.state
        state.consumed += 1
        try:
            event = parse_wire(raw)
        except StreamError as exc:
            self.dlq.put(raw, str(exc))
            state.dead_lettered += 1
            self.ledger.record(
                ResilienceEvent.ESCALATION,
                "wire-parse",
                time=self.scheduler.clock.now,
                detail=f"poison record escalated to the DLQ: {exc}",
            )
            return
        digest = event.digest_int()
        if digest in state.seen:
            state.deduped += 1
            return
        state.apply(event, digest)
        if self.config.learn:
            sample = _training_sample(self.vectorizer, event)
            if sample is not None:
                train.append(sample)

    # -- the batch fold ---------------------------------------------------------
    def _step(self, state: StreamState, k: int) -> None:
        self.state = state  # _fetch_block and _process account into it
        config = self.config
        start = k * config.blocks_per_batch
        stop = min(start + config.blocks_per_batch, config.n_blocks)
        queue: deque[str] = deque()
        train: list[tuple[SparseRow, str]] = []
        for block in range(start, stop):
            records = self._fetch_block(block)
            if records is None:
                state.blocks_abandoned += 1
                state.lost_upstream += len(self.source.wire_block(block))
                continue
            state.blocks_fetched += 1
            queue.extend(records)
            state.max_queue_depth = max(state.max_queue_depth, len(queue))
            # Backpressure: the producer stops fetching until the consumer
            # has drained the queue back under its capacity.
            while len(queue) > config.queue_capacity:
                self._process(queue.popleft(), train)
        while queue:
            self._process(queue.popleft(), train)
        if train:
            if state.model is None:
                state.model = OnlineLinearSVM(
                    n_features=self.vectorizer.n_features,
                    regularization=config.regularization,
                )
            rows = [row for row, _ in train]
            labels = [label for _, label in train]
            state.model.partial_fit(rows, labels)
            state.trained += len(train)
        state.batch_index = k
        _check_accounting(state)
        self.dlq.publish(k)

    # -- orchestration ----------------------------------------------------------
    def run(self, *, resume: bool = False) -> IngestReport:
        config = self.config
        self.state, batches, fingerprint = fold_batches(
            self.run_dir,
            f"ingest-{config.seed}",
            resume=resume,
            config_digest=config.digest(),
            n_batches=config.n_batches,
            initial=lambda: StreamState(
                config=config.to_dict(),
                dist=RollingDistribution(window_days=config.window_days),
            ),
            step=self._step,
            save_state=save_state,
            load_state=load_state,
            on_event=self._on_event,
            progress=lambda state, k: self._progress(
                f"batch {k + 1}/{config.n_batches}: "
                f"{state.applied} applied, "
                f"{state.deduped} deduped, "
                f"{state.dead_lettered} dead-lettered"
            ),
        )
        self._export(fingerprint)
        return IngestReport(
            config=config,
            state=self.state,
            run_dir=self.run_dir,
            resumed=resume,
            batches_executed=batches,
            ledger=self.ledger,
            sim_seconds=self.scheduler.clock.now,
            fingerprint=fingerprint,
        )

    def _export(self, fingerprint: str) -> None:
        state = self.state
        dlq_depth = self.dlq.depth()
        summary = {
            "config_digest": self.config.digest(),
            "consumed": state.consumed,
            "applied": state.applied,
            "deduped": state.deduped,
            "dead_lettered": state.dead_lettered,
            "lost_upstream": state.lost_upstream,
            "blocks_fetched": state.blocks_fetched,
            "blocks_abandoned": state.blocks_abandoned,
            "retries": state.retries,
            "rate_limited": state.rate_limited,
            "max_queue_depth": state.max_queue_depth,
            "trained": state.trained,
            "bugs": len(state.bugs),
            "dlq_depth": dlq_depth,
            "breaker_trips": self.breaker.trips,
            "sim_seconds": self.scheduler.clock.now,
            "recovery_cost": self.ledger.recovery_cost(),
            "fingerprint": fingerprint,
            "analytics_digest": state.analytics_digest(),
        }
        atomic_write(
            self.run_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=1)
        )
        atomic_write(
            self.run_dir / "ledger.json",
            json.dumps(self.ledger.to_dicts(), sort_keys=True, indent=1),
        )
        atomic_write(
            self.run_dir / "metrics.jsonl",
            state_metrics(state, dlq_depth=dlq_depth).export_jsonl(),
        )


def _training_sample(
    vectorizer: HashingVectorizer, event: TrackerEvent
) -> tuple[SparseRow, str] | None:
    """A ``(hashed row, symptom)`` pair, for labeled issue-closed events."""
    if event.event_type != "issue-closed":
        return None
    labels = event.payload.get("labels")
    if not isinstance(labels, dict) or "symptom" not in labels:
        return None
    tokens = event.payload.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        return None
    return (
        vectorizer.transform_tokens(str(token) for token in tokens),
        str(labels["symptom"]),
    )


def _check_accounting(state: StreamState) -> None:
    """The zero-silent-drops invariant, enforced at every batch boundary."""
    if state.consumed != state.applied + state.deduped + state.dead_lettered:
        raise StreamError(
            f"accounting violated after batch {state.batch_index}: "
            f"consumed={state.consumed} != applied={state.applied} + "
            f"deduped={state.deduped} + dead_lettered={state.dead_lettered}"
        )


def state_metrics(state: StreamState, *, dlq_depth: int | None = None):
    """Project a :class:`StreamState` onto a ``MetricsRegistry``.

    Derived purely from the snapshot (plus the DLQ directory when given),
    so a resumed run exports exactly the metrics an uninterrupted run
    would — the same property the state fingerprint guarantees.
    """
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "ingest_consumed_total", "Wire records consumed"
    ).inc(state.consumed)
    registry.counter(
        "ingest_applied_total", "Unique events applied"
    ).inc(state.applied)
    registry.counter(
        "ingest_dedup_hits_total", "Deliveries recognized as duplicates"
    ).inc(state.deduped)
    registry.counter(
        "ingest_dead_lettered_total", "Records dead-lettered with a reason"
    ).inc(state.dead_lettered)
    registry.counter(
        "ingest_lost_upstream_total", "Records lost to priced give-ups"
    ).inc(state.lost_upstream)
    registry.counter(
        "ingest_retries_total", "Fetch retries across all blocks"
    ).inc(state.retries)
    registry.counter(
        "ingest_rate_limited_total", "Fetches throttled by the upstream"
    ).inc(state.rate_limited)
    registry.counter(
        "ingest_batches_total", "Journaled batches committed"
    ).inc(state.batch_index + 1)
    registry.gauge(
        "ingest_seen_events", "Distinct event digests in the dedup set"
    ).set(len(state.seen))
    registry.gauge(
        "ingest_bugs_tracked", "Distinct bug registers"
    ).set(len(state.bugs))
    registry.gauge(
        "ingest_consumer_lag_peak",
        "Peak backpressure-queue depth (consumer lag high-water mark)",
    ).set(state.max_queue_depth)
    registry.gauge(
        "ingest_model_trained", "Labeled samples fed to the online learner"
    ).set(state.trained)
    if dlq_depth is not None:
        registry.gauge(
            "ingest_dlq_depth", "Distinct dead-lettered records on disk"
        ).set(dlq_depth)
    events_hist = registry.histogram(
        "ingest_events_per_bug",
        "Unique events applied per bug register",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    )
    # A few dozen distinct counts over thousands of registers: observe each
    # once, with its multiplicity.  The values are whole numbers, so the
    # histogram's sum is exact in any order.
    per_count = Counter(register["events"] for register in state.bugs.values())
    for events, registers in sorted(per_count.items()):
        events_hist.observe(float(events), registers)
    return registry


def run_ingest(
    config: IngestConfig,
    run_dir: str | Path,
    *,
    resume: bool = False,
    on_event: Callable[[JournalEvent], None] | None = None,
    progress: Callable[[str], None] | None = None,
) -> IngestReport:
    """Run (or resume) one ingestion; the CLI, tests, and bench call this."""
    ingest = StreamIngest(config, run_dir, on_event=on_event, progress=progress)
    return ingest.run(resume=resume)


def replay_dlq(run_dir: str | Path) -> dict[str, int]:
    """Lenient offline replay of a finished run's dead-letter queue.

    Re-parses every DLQ entry with the lenient parser (BOM/whitespace
    stripping — the transport-artifact class of corruption).  An entry
    that now parses moves every one of its deliveries out of
    ``dead_lettered``: the first is applied, or deduped when its event is
    already in the dedup set, and each further delivery is deduped.  The
    recovery is journaled as its own committed stage whose ``meta`` names
    the recovered digests, and only then are those entries removed.  A
    crash between the commit and the removals is rolled forward: a rerun
    first removes what the last committed replay recovered, then replays
    what is left.  Irrecoverably corrupt records stay in the DLQ for the
    audit trail.

    An unfinished run is refused before anything is written: its DLQ may
    hold the file of a batch that was published but never committed,
    whose deliveries the state does not count, and a resume would
    dead-letter them again after the replay had moved them.  Once a run
    is finished no batch runs again, so every entry a committed replay
    names and that is still on disk is one it moved.

    Returns the entries ``recovered`` (``applied`` plus ``deduped``), the
    ``deliveries`` they moved, and the entries ``remaining``.
    """
    run_dir = Path(run_dir)
    journal_path = run_dir / JOURNAL_FILENAME
    if not journal_path.exists():
        raise StreamError(f"{run_dir}: no ingest journal to replay against")
    dlq = DeadLetterQueue(run_dir / "dlq")

    # Locate the latest committed snapshot; its config is the run's config,
    # and resume-mode journal reopening cross-checks it against the digest
    # the journal recorded (drift is refused, exactly as for --resume).
    replay = replay_journal(journal_path)
    restored = restore_snapshot(run_dir, replay.committed(), load_state)
    if restored is None:
        raise StreamError(
            f"{run_dir}: no committed snapshot to replay the DLQ against"
        )
    state, _ = restored
    config = IngestConfig(**state.config)
    if state.batch_index < config.n_batches - 1:
        raise StreamError(
            f"{run_dir}: the run is unfinished ({state.batch_index + 1} of "
            f"{config.n_batches} batches committed); resume it before "
            "replaying its DLQ"
        )
    journal, committed = open_run_journal(
        journal_path,
        f"ingest-{config.seed}",
        resume=True,
        config_digest=config.digest(),
        replay=replay,
    )
    try:
        replays = [event for stage, event in committed.items()
                   if stage.startswith("dlq-replay-")]
        entries = dlq.entries()
        if replays:
            # Roll forward: the last replay's commit is durable, so its
            # entries are already moved in ``state`` and must go.  A replay
            # committed before commits named their digests has none left to
            # remove: the queue refuses the per-record files it read.
            last = max(replays, key=lambda event: event.seq)
            unfinished = set(last.meta.get("digests", ())).intersection(
                entry.digest for entry in entries
            )
            dlq.remove(unfinished)
            entries = [entry for entry in entries if entry.digest not in unfinished]
        stage = f"dlq-replay-{len(replays):04d}"
        journal.append(EVENT_BEGIN, stage=stage)
        applied = deduped = deliveries = 0
        recovered: list[str] = []
        for entry in entries:
            try:
                event = parse_wire(entry.raw, lenient=True)
            except StreamError:  # sdnlint: disable=dataflow.unpriced-exception (entry stays dead-lettered: the DLQ itself is the audit record)
                continue  # genuinely corrupt; keep for the audit trail
            digest = event.digest_int()
            if digest in state.seen:
                deduped += 1
                state.deduped += entry.deliveries
            else:
                state.apply(event, digest)
                applied += 1
                state.deduped += entry.deliveries - 1
            # Every delivery is now accounted as consumed instead of
            # dead-lettered: move them all across the ledger columns.
            state.dead_lettered -= entry.deliveries
            deliveries += entry.deliveries
            recovered.append(entry.digest)
        _check_accounting(state)
        result = {
            "recovered": len(recovered),
            "deliveries": deliveries,
            "applied": applied,
            "deduped": deduped,
        }
        commit_snapshot(
            journal, run_dir, stage, f"state-dlq-{len(replays):04d}.json", state,
            save_state, meta={**result, "digests": recovered},
        )
        # Only after the commit is durable do the DLQ entries disappear.
        dlq.remove(recovered)
        remaining = dlq.depth()
        atomic_write(
            run_dir / "metrics.jsonl",
            state_metrics(state, dlq_depth=remaining).export_jsonl(),
        )
        return {**result, "remaining": remaining}
    finally:
        journal.close()
