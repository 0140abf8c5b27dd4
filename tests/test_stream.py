"""Streaming ingestion plane: events, faults, DLQ, state, learning, runs."""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RateLimitedError, SourceOutageError, StreamError
from repro.recovery.checkpoint import RecoveryError
from repro.recovery.harness import tear_file
from repro.recovery.journal import EVENT_COMMIT, RunJournal, replay_journal
from repro.recovery.smoke import STREAM_CONFIG
from repro.resilience.ledger import ResilienceEvent
from repro.stream import (
    DeadLetterQueue,
    FaultMix,
    FlakySource,
    HashingVectorizer,
    IngestConfig,
    OnlineLinearSVM,
    RollingDistribution,
    StreamState,
    TrackerEvent,
    load_state,
    parse_wire,
    replay_dlq,
    run_ingest,
    save_state,
    state_metrics,
    synthetic_event,
)

# -- events ---------------------------------------------------------------------


def test_event_round_trips_through_wire_form():
    event = synthetic_event(3, 17)
    assert parse_wire(event.canonical()) == event


def test_event_digest_ignores_key_order_and_whitespace():
    event = synthetic_event(3, 17)
    scrambled = json.dumps(
        dict(reversed(list(event.to_dict().items()))), indent=3
    )
    assert parse_wire(scrambled).digest() == event.digest()


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("bug_id"), "missing field"),
        (lambda d: d.update(event_type="issue-exploded"), "unknown event type"),
        (lambda d: d.update(tracker="bugzilla"), "unknown tracker"),
        (lambda d: d.update(bug_id=""), "empty bug_id"),
        (lambda d: d.update(at="yesterday-ish"), "unparseable event time"),
        (lambda d: d.update(payload=[1, 2]), "payload must be an object"),
    ],
)
def test_malformed_events_raise_stream_error(mutate, match):
    data = synthetic_event(0, 0).to_dict()
    mutate(data)
    with pytest.raises(StreamError, match=match):
        TrackerEvent.from_dict(data)


def test_strict_parse_refuses_bom_lenient_recovers_it():
    raw = "﻿  " + synthetic_event(1, 5).canonical()
    with pytest.raises(StreamError, match="not valid JSON"):
        parse_wire(raw)
    assert parse_wire(raw, lenient=True) == synthetic_event(1, 5)


# -- sources --------------------------------------------------------------------


def test_synthetic_event_is_a_pure_function_of_seed_and_index():
    assert synthetic_event(9, 123) == synthetic_event(9, 123)
    assert synthetic_event(9, 123) != synthetic_event(9, 124)
    assert synthetic_event(9, 123) != synthetic_event(10, 123)


def test_synthetic_closed_events_carry_training_labels():
    labeled = [
        e for e in (synthetic_event(0, i) for i in range(400))
        if e.event_type == "issue-closed"
    ]
    assert labeled
    for event in labeled:
        assert set(event.payload["labels"]) == {"symptom", "root_cause"}


# -- the flaky source -----------------------------------------------------------


def _source(mix: FaultMix, *, seed=4, total=192, block_size=32) -> FlakySource:
    return FlakySource(
        lambda i: synthetic_event(seed, i),
        total,
        mix=mix,
        seed=seed,
        block_size=block_size,
    )


def test_fault_mix_validates_rates_and_depth():
    with pytest.raises(StreamError, match="corrupt_rate"):
        FaultMix(corrupt_rate=1.5)
    with pytest.raises(StreamError, match="outage_depth"):
        FaultMix(outage_depth=0)


def test_clean_blocks_deliver_the_canonical_stream():
    source = _source(FaultMix())
    records = [r for b in range(source.n_blocks) for r in source.wire_block(b)]
    assert records == [
        synthetic_event(4, i).canonical() for i in range(source.total)
    ]


def test_wire_blocks_are_pure_functions_of_seed_and_block():
    mix = FaultMix(corrupt_rate=0.1, duplicate_rate=0.2, reorder_rate=0.5)
    assert [_source(mix).wire_block(b) for b in range(6)] == [
        _source(mix).wire_block(b) for b in range(6)
    ]


def test_reordering_and_duplication_preserve_the_record_multiset():
    noisy = _source(FaultMix(duplicate_rate=0.3, reorder_rate=1.0))
    clean = _source(FaultMix())
    for block in range(noisy.n_blocks):
        noisy_records = noisy.wire_block(block)
        assert set(noisy_records) == set(clean.wire_block(block))
        assert len(noisy_records) >= len(clean.wire_block(block))


def test_fetch_fails_exactly_as_planned_then_succeeds():
    source = _source(FaultMix(outage_rate=1.0, outage_depth=3))
    fate = source.plan(0)
    assert 1 <= fate.failures <= 3
    for attempt in range(1, fate.failures + 1):
        with pytest.raises(SourceOutageError):
            source.fetch(0, attempt)
    assert source.fetch(0, fate.failures + 1) == source.wire_block(0)


def test_rate_limit_carries_a_retry_after_hint():
    source = _source(FaultMix(rate_limit_rate=1.0))
    with pytest.raises(RateLimitedError) as excinfo:
        source.fetch(0, 1)
    assert excinfo.value.retry_after > 0


# -- dead-letter queue ----------------------------------------------------------


def test_dlq_put_counts_deliveries_and_publishes_one_file_per_batch(tmp_path):
    dlq = DeadLetterQueue(tmp_path / "dlq")
    key = dlq.put("{broken", "wire record is not valid JSON")
    assert dlq.put("{broken", "wire record is not valid JSON") == key
    dlq.put('{"at', "wire record is not valid JSON: truncated")
    assert dlq.depth() == 0, "a put stays in memory until its batch publishes"
    dlq.publish(3)
    dlq.publish(4)  # nothing dead-lettered in batch 4: no file
    assert [path.name for path in (tmp_path / "dlq").iterdir()] == ["batch-0003.jsonl"]
    lines = (tmp_path / "dlq" / "batch-0003.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [record["digest"] for record in records] == sorted(
        record["digest"] for record in records
    )
    assert all(
        line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        and set(record) == {"digest", "raw", "reason", "deliveries"}
        for line, record in zip(lines, records)
    )
    assert dlq.depth() == 2
    # The same record dead-lettered again in a later batch: one entry, its
    # deliveries summed across the files.
    dlq.put("{broken", "wire record is not valid JSON")
    dlq.publish(5)
    assert dlq.depth() == 2
    assert {entry.raw: entry.deliveries for entry in dlq.entries()} == {
        "{broken": 3, '{"at': 1,
    }
    (entry,) = [entry for entry in dlq.entries() if entry.digest == key]
    assert "not valid JSON" in entry.reason
    dlq.remove([key])
    assert [entry.raw for entry in dlq.entries()] == ['{"at']
    assert not (tmp_path / "dlq" / "batch-0005.jsonl").exists()
    with pytest.raises(StreamError, match="no DLQ entry"):
        dlq.remove([key])


# -- state ----------------------------------------------------------------------


def _apply_stream(events) -> StreamState:
    state = StreamState(config={})
    for event in events:
        digest = event.digest_int()
        if digest not in state.seen:
            state.apply(event, digest)
    return state


def test_state_snapshot_round_trips_bit_for_bit(tmp_path):
    state = _apply_stream(synthetic_event(2, i) for i in range(64))
    state.consumed = 64
    digest = save_state(state, tmp_path / "state.json")
    loaded = load_state(tmp_path / "state.json", expect_digest=digest)
    assert loaded.fingerprint() == state.fingerprint()


def test_state_save_returns_the_fingerprint(tmp_path):
    state = _apply_stream(synthetic_event(2, i) for i in range(64))
    state.consumed = 64
    path = tmp_path / "state.json"
    assert save_state(state, path) == state.fingerprint()
    assert path.read_text(encoding="utf-8") == state.canonical_json()


def test_state_load_refuses_digest_drift_and_bad_version(tmp_path):
    state = StreamState(config={})
    save_state(state, tmp_path / "state.json")
    with pytest.raises(StreamError, match="digest mismatch"):
        load_state(tmp_path / "state.json", expect_digest="0" * 64)
    data = state.to_dict()
    data["version"] = 99
    (tmp_path / "future.json").write_text(json.dumps(data))
    with pytest.raises(StreamError, match="unsupported stream state version"):
        load_state(tmp_path / "future.json")


@settings(max_examples=25, deadline=None)
@given(
    order=st.permutations(list(range(48))),
    extras=st.lists(st.integers(min_value=0, max_value=47), max_size=60),
)
def test_analytics_are_invariant_under_permutation_and_duplication(
    order, extras
):
    """Any delivery order, any duplication: same analytics digest."""
    events = [synthetic_event(6, i) for i in range(48)]
    reference = _apply_stream(events).analytics_digest()
    shuffled = [events[i] for i in list(order) + extras]
    assert _apply_stream(shuffled).analytics_digest() == reference


# -- online learning ------------------------------------------------------------


def test_hashing_vectorizer_is_deterministic_and_l2_normalized():
    vec = HashingVectorizer(n_features=256, seed=1)
    row = vec.transform_tokens(["crash", "deadlock", "crash", "vlan"])
    again = vec.transform_tokens(["crash", "deadlock", "crash", "vlan"])
    assert row.cols.tolist() == again.cols.tolist()
    assert row.vals.tolist() == again.vals.tolist()
    assert float(row.vals @ row.vals) == pytest.approx(1.0)
    with pytest.raises(StreamError, match="power of two"):
        HashingVectorizer(n_features=100)


def test_hashing_vectorizer_dense_rows_match_the_sparse_rows():
    vec = HashingVectorizer(n_features=64, seed=2)
    rows = [vec.transform_tokens(["crash", "vlan"]), vec.transform_tokens([])]
    dense = vec.to_dense(rows)
    assert dense.shape == (2, 64)
    assert dense[0, rows[0].cols].tolist() == rows[0].vals.tolist()
    assert np.count_nonzero(dense[0]) == len(rows[0].cols)
    assert not dense[1].any()


def test_online_svm_counts_the_samples_it_has_seen():
    vec = HashingVectorizer(n_features=64, seed=0)
    model = OnlineLinearSVM(n_features=64, t0=10)
    assert model.samples_seen == 0
    model.partial_fit([vec.transform_tokens(["crash"])] * 3, ["a", "b", "a"])
    model.partial_fit([vec.transform_tokens(["slow"])], ["b"])
    assert model.samples_seen == 4
    assert model.counts == {"a": 2, "b": 2}
    assert OnlineLinearSVM.from_dict(model.to_dict()).samples_seen == 4
    with pytest.raises(StreamError, match="different lengths"):
        model.partial_fit([vec.transform_tokens(["x"])], [])


def dict_row(vec, tokens):
    """``transform_tokens`` as it was when rows were ``{slot: value}`` dicts."""
    row = {}
    for token in tokens:
        h = zlib.crc32(f"{vec.seed}:{token}".encode("utf-8"))
        slot = (h >> 1) & (vec.n_features - 1)
        row[slot] = row.get(slot, 0.0) + (1.0 if h & 1 else -1.0)
    norm = sum(value * value for value in row.values()) ** 0.5
    if norm > 0.0:
        row = {slot: value / norm for slot, value in row.items()}
    return {slot: value for slot, value in row.items() if value != 0.0}


class DictRowSVM:
    """The dict-row Pegasos loop ``OnlineLinearSVM`` ran before it moved onto
    the shared ``pegasos_step``: the reference its snapshots must equal."""

    def __init__(self, *, n_features, class_weight, regularization=1e-3, t0=100):
        self.n_features = n_features
        self.regularization = regularization
        self.t0 = t0
        self.class_weight = class_weight
        self.t = t0
        self.counts = {}
        self.v, self.scale, self.bias = {}, {}, {}

    def weight(self, cls, positive):
        if self.class_weight is None:
            return 1.0
        seen = max(self.t - self.t0, 1)
        n_pos = max(self.counts.get(cls, 0), 1)
        n_side = n_pos if positive else max(seen - n_pos, 1)
        return min(seen / (2.0 * n_side), 3.0)

    def partial_fit(self, rows, labels):
        lam = self.regularization
        for row, label in zip(rows, labels):
            if label not in self.v:
                self.v[label] = np.zeros(self.n_features)
                self.scale[label] = 1.0
                self.bias[label] = 0.0
                self.counts.setdefault(label, 0)
            self.t += 1
            self.counts[label] = self.counts.get(label, 0) + 1
            eta = 1.0 / (lam * self.t)
            decay = 1.0 - eta * lam
            for cls in sorted(self.v):
                v, scale, bias = self.v[cls], self.scale[cls], self.bias[cls]
                y = 1.0 if cls == label else -1.0
                dot = float(sum(v[slot] * value for slot, value in row.items()))
                margin = y * (scale * dot + bias)
                scale *= decay
                if margin < 1.0:
                    step = eta * self.weight(cls, y > 0) * y
                    for slot, value in row.items():
                        v[slot] += step * value / scale
                    bias += step
                if scale < 1e-6:
                    v *= scale
                    scale = 1.0
                self.scale[cls] = scale
                self.bias[cls] = bias

    def to_dict(self):
        return {
            "n_features": self.n_features,
            "regularization": self.regularization,
            "t0": self.t0,
            "class_weight": self.class_weight,
            "weight_cap": 3.0,
            "t": self.t,
            "counts": {cls: self.counts[cls] for cls in sorted(self.counts)},
            "classes": {
                cls: {
                    "scale": self.scale[cls],
                    "bias": self.bias[cls],
                    "v": self.v[cls].tolist(),
                }
                for cls in sorted(self.v)
            },
        }


@pytest.mark.parametrize("class_weight", ["balanced", None])
def test_online_svm_snapshot_equals_the_dict_row_oracle(dataset, class_weight):
    """The shared step reproduces the dict-row loop's snapshot byte for byte
    over the 795-bug corpus, including a class first seen mid-minibatch."""
    bugs = list(dataset)
    vec = HashingVectorizer(n_features=4096, seed=0)
    tokens = [
        re.findall(r"[a-z][a-z0-9_]+", f"{bug.report.title} {bug.report.description}".lower())
        for bug in bugs
    ]
    labels = [bug.label.symptom.value for bug in bugs]
    rows = [vec.transform_tokens(doc) for doc in tokens]
    oracle_rows = [dict_row(vec, doc) for doc in tokens]
    for row, oracle_row in zip(rows, oracle_rows):
        assert list(zip(row.cols.tolist(), row.vals.tolist())) == list(oracle_row.items())
    # Hold the rarest symptom back so it first appears inside a minibatch.
    rare = min(set(labels), key=labels.count)
    held = [i for i, label in enumerate(labels) if label != rare][:250]
    order = held + [i for i in range(len(bugs)) if i not in set(held)]
    batch = 64
    first_rare = next(k for k, i in enumerate(order) if labels[i] == rare)
    assert first_rare % batch != 0

    model = OnlineLinearSVM(n_features=4096, class_weight=class_weight)
    oracle = DictRowSVM(n_features=4096, class_weight=class_weight)
    for start in range(0, len(order), batch):
        chunk = order[start:start + batch]
        model.partial_fit([rows[i] for i in chunk], [labels[i] for i in chunk])
        oracle.partial_fit([oracle_rows[i] for i in chunk], [labels[i] for i in chunk])
    assert json.dumps(model.to_dict()) == json.dumps(oracle.to_dict())


def test_online_svm_learns_a_separable_stream_and_round_trips():
    vec = HashingVectorizer(n_features=256, seed=0)
    rng = random.Random(0)
    vocab = {"crash": ["segfault", "core", "abort"],
             "performance": ["latency", "slow", "throughput"]}
    samples = [
        (vec.transform_tokens(rng.sample(words, 2)), label)
        for _ in range(80)
        for label, words in vocab.items()
    ]
    model = OnlineLinearSVM(n_features=256)
    for start in range(0, len(samples), 16):
        chunk = samples[start:start + 16]
        model.partial_fit([r for r, _ in chunk], [y for _, y in chunk])
    rows = [r for r, _ in samples]
    truth = [y for _, y in samples]
    accuracy = sum(
        p == t for p, t in zip(model.predict(rows), truth)
    ) / len(truth)
    assert accuracy >= 0.95

    clone = OnlineLinearSVM.from_dict(model.to_dict())
    assert clone.to_dict() == model.to_dict()
    assert clone.predict(rows) == model.predict(rows)


def test_rolling_distribution_windows_by_event_time():
    dist = RollingDistribution(window_days=7)
    dist.observe("2017-01-01T00:00:00", "crash", "logic_error")
    dist.observe("2017-02-01T00:00:00", "byzantine", "sync_error")
    dist.observe("2017-02-03T00:00:00", "byzantine", "sync_error")
    assert dist.window() == {"byzantine|sync_error": 2}
    clone = RollingDistribution.from_dict(dist.to_dict())
    assert clone.to_dict() == dist.to_dict()


# -- ingestion runs -------------------------------------------------------------

#: Small but fault-rich: the outage depth beats the retry budget, so some
#: blocks are genuinely abandoned and priced.
HOSTILE = IngestConfig(
    seed=5,
    events=480,
    batch=96,
    block=24,
    pool=80,
    outage_rate=0.3,
    outage_depth=4,
    rate_limit_rate=0.2,
    corrupt_rate=0.05,
    duplicate_rate=0.1,
    reorder_rate=0.3,
    retry_attempts=2,
    queue_capacity=48,
)


def test_clean_run_applies_every_event_exactly_once(tmp_path):
    config = IngestConfig(seed=1, events=300, batch=100, block=25, pool=60)
    report = run_ingest(config, tmp_path / "run")
    state = report.state
    assert state.consumed == state.applied == 300
    assert state.deduped == state.dead_lettered == state.lost_upstream == 0
    assert len(state.seen) == 300
    assert report.dlq_depth == 0
    assert state.model is not None and state.trained > 0


def test_rolling_window_is_the_configured_one(tmp_path):
    config = IngestConfig(seed=1, events=300, batch=100, block=25, pool=60, window_days=7)
    report = run_ingest(config, tmp_path / "run")
    assert report.state.dist.window_days == 7
    resumed = run_ingest(config, tmp_path / "run", resume=True)
    assert resumed.state.dist.window_days == 7


def test_hostile_run_accounts_for_every_record(tmp_path):
    report = run_ingest(HOSTILE, tmp_path / "run")
    state = report.state
    assert state.consumed == (
        state.applied + state.deduped + state.dead_lettered
    )
    # Losses exist and every one is priced in the resilience ledger.
    assert state.lost_upstream > 0
    assert report.ledger.count(ResilienceEvent.GIVE_UP) == state.blocks_abandoned
    assert state.retries > 0 and state.rate_limited > 0
    assert state.deduped > 0 and state.dead_lettered > 0
    # The external audit: regenerate what the source emitted.
    emitted = sum(
        len(
            FlakySource(
                lambda i: synthetic_event(HOSTILE.seed, i, pool=HOSTILE.pool),
                HOSTILE.events,
                mix=HOSTILE.mix(),
                seed=HOSTILE.seed,
                block_size=HOSTILE.block,
            ).wire_block(b)
        )
        for b in range(HOSTILE.n_blocks)
    )
    assert emitted == state.consumed + state.lost_upstream
    # Backpressure held: the queue never grew past capacity + one block's
    # worth of records (duplication can fatten a block past block size).
    assert state.max_queue_depth <= HOSTILE.queue_capacity + 2 * HOSTILE.block


def test_run_exports_metrics_summary_and_ledger(tmp_path):
    report = run_ingest(HOSTILE, tmp_path / "run")
    exported = (tmp_path / "run" / "metrics.jsonl").read_text()
    names = {json.loads(line)["name"] for line in exported.splitlines()}
    assert {
        "ingest_consumed_total", "ingest_applied_total",
        "ingest_dedup_hits_total", "ingest_dead_lettered_total",
        "ingest_lost_upstream_total", "ingest_consumer_lag_peak",
        "ingest_dlq_depth", "ingest_events_per_bug",
    } <= names
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["fingerprint"] == report.state.fingerprint()
    # Metrics derive purely from the snapshot: re-deriving them from the
    # final state reproduces the export byte for byte.
    regenerated = state_metrics(
        report.state, dlq_depth=report.dlq_depth
    ).export_jsonl()
    assert regenerated == exported


def test_events_per_bug_histogram_matches_the_per_register_loop(tmp_path):
    """The histogram observes each distinct ``events`` count once, with its
    multiplicity; its export equals observing every register in turn."""
    from repro.observability.metrics import MetricsRegistry

    state = run_ingest(HOSTILE, tmp_path / "run").state
    counts = [register["events"] for register in state.bugs.values()]
    assert len(set(counts)) > 1 and len(counts) > len(set(counts))
    oracle = MetricsRegistry()
    histogram = oracle.histogram(
        "ingest_events_per_bug",
        "Unique events applied per bug register",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    )
    for register in state.bugs.values():
        histogram.observe(float(register["events"]))
    ours = [
        line for line in state_metrics(state).export_jsonl().splitlines()
        if json.loads(line)["name"] == "ingest_events_per_bug"
    ]
    assert ours == oracle.export_jsonl().splitlines()


def test_journal_refuses_fresh_over_existing_and_config_drift(tmp_path):
    run_ingest(HOSTILE, tmp_path / "run")
    with pytest.raises(RecoveryError, match="journal already exists"):
        run_ingest(HOSTILE, tmp_path / "run")
    drifted = IngestConfig(**{**HOSTILE.to_dict(), "seed": 6})
    with pytest.raises(RecoveryError, match="config"):
        run_ingest(drifted, tmp_path / "run", resume=True)


def test_completed_run_resumes_to_identical_fingerprint(tmp_path):
    first = run_ingest(HOSTILE, tmp_path / "run")
    again = run_ingest(HOSTILE, tmp_path / "run", resume=True)
    assert again.batches_executed == 0
    assert again.state.fingerprint() == first.state.fingerprint()


def test_resumes_keep_working_after_a_torn_journal_tail(tmp_path):
    config = IngestConfig(**{**HOSTILE.to_dict(), "events": 240})
    reference = run_ingest(config, tmp_path / "reference").state.fingerprint()

    class Abort(RuntimeError):
        pass

    def abort_at_5(event):
        if event.seq == 4:  # the fifth durable event: batch-1's commit
            raise Abort()

    with pytest.raises(Abort):
        run_ingest(config, tmp_path / "run", on_event=abort_at_5)
    journal = tmp_path / "run" / "journal.jsonl"
    tear_file(journal, -9)

    resumed = run_ingest(config, tmp_path / "run", resume=True)
    assert resumed.state.fingerprint() == reference
    again = run_ingest(config, tmp_path / "run", resume=True)
    assert again.batches_executed == 0
    assert again.state.fingerprint() == reference
    assert replay_journal(journal).dropped == 0


def test_dlq_replay_recovers_bom_records_and_keeps_the_rest(tmp_path, journal_parses):
    config = IngestConfig(**{**HOSTILE.to_dict(), "corrupt_rate": 0.2})
    report = run_ingest(config, tmp_path / "run")
    state = report.state
    before = report.dlq_depth
    assert before > 0

    journal_parses.clear()
    result = replay_dlq(tmp_path / "run")
    assert len(journal_parses) == 1, "the replay parses the journal once"
    assert result["recovered"] > 0, "no BOM-corrupted records to recover"
    assert result["recovered"] == result["applied"] + result["deduped"]
    assert result["remaining"] == before - result["recovered"]

    # The replayed state is journaled: a further resume picks it up, still
    # balanced, with the recovered deliveries moved out of dead_lettered.
    journal_parses.clear()
    resumed = run_ingest(config, tmp_path / "run", resume=True)
    assert len(journal_parses) == 1, "the resume parses the journal once"
    rs = resumed.state
    assert rs.dead_lettered == state.dead_lettered - result["deliveries"]
    assert rs.applied == state.applied + result["applied"]
    assert rs.consumed == rs.applied + rs.deduped + rs.dead_lettered
    # Replay is idempotent: nothing recoverable is left behind.
    assert replay_dlq(tmp_path / "run")["recovered"] == 0


def test_replay_dlq_needs_a_journaled_run(tmp_path):
    with pytest.raises(StreamError, match="no ingest journal"):
        replay_dlq(tmp_path / "empty")


#: HOSTILE with enough corruption that duplicated BOM records get recovered.
POISONED = IngestConfig(**{**HOSTILE.to_dict(), "corrupt_rate": 0.2})


def test_dlq_replay_moves_every_delivery_of_a_recovered_record(tmp_path, monkeypatch):
    """A duplicated poison record is one entry with several deliveries;
    replaying it must move all of them out of ``dead_lettered``."""
    deliveries: Counter[str] = Counter()  # counted apart from the DLQ
    put = DeadLetterQueue.put

    def counting_put(dlq, raw, reason):
        deliveries[raw] += 1
        return put(dlq, raw, reason)

    monkeypatch.setattr(DeadLetterQueue, "put", counting_put)
    run_dir = tmp_path / "run"
    run_ingest(POISONED, run_dir)
    before = {entry.raw for entry in DeadLetterQueue(run_dir / "dlq").entries()}
    replay_dlq(run_dir)
    left = {entry.raw for entry in DeadLetterQueue(run_dir / "dlq").entries()}
    recovered = before - left
    assert any(deliveries[raw] > 1 for raw in recovered), "no duplicate recovered"
    state = run_ingest(POISONED, run_dir, resume=True).state
    assert state.dead_lettered == sum(deliveries[raw] for raw in left)
    assert state.consumed == state.applied + state.deduped + state.dead_lettered


def test_dlq_replay_rerun_after_a_crash_before_its_removals_converges(
    tmp_path, monkeypatch
):
    """The replay commits, then dies before removing what it recovered;
    the rerun must end where an uninterrupted replay ends."""
    run_ingest(POISONED, tmp_path / "reference")
    shutil.copytree(tmp_path / "reference", tmp_path / "crashed")
    replay_dlq(tmp_path / "reference")

    class Crash(RuntimeError):
        pass

    append = RunJournal.append

    def crash_after_replay_commit(journal, event, **fields):
        record = append(journal, event, **fields)
        if event == EVENT_COMMIT and record.stage.startswith("dlq-replay-"):
            raise Crash(record.stage)
        return record

    with monkeypatch.context() as patch:
        patch.setattr(RunJournal, "append", crash_after_replay_commit)
        with pytest.raises(Crash):
            replay_dlq(tmp_path / "crashed")
    rerun = replay_dlq(tmp_path / "crashed")

    def outcome(run: str):
        resumed = run_ingest(POISONED, tmp_path / run, resume=True)
        dlq = DeadLetterQueue(tmp_path / run / "dlq").entries()
        return resumed.state.fingerprint(), dlq

    assert outcome("crashed") == outcome("reference")
    assert rerun["recovered"] == 0, "the rerun moved recovered deliveries again"


class _Killed(RuntimeError):
    pass


def _run_killed_before_commit(config: IngestConfig, run_dir, k: int, monkeypatch) -> None:
    """Run ``config`` until batch ``k`` has published its dead letters,
    then die before its snapshot commits."""
    from repro.stream import ingest

    def dying_save(state, path):
        if path.name == f"state-{k:04d}.json":
            raise _Killed(path.name)
        return save_state(state, path)

    with monkeypatch.context() as patch:
        patch.setattr(ingest, "save_state", dying_save)
        with pytest.raises(_Killed):
            run_ingest(config, run_dir)


def _tree(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_dlq_replay_refuses_an_unfinished_run(tmp_path, monkeypatch):
    """A killed run's DLQ holds the published file of a batch with no
    commit.  Replaying it would move deliveries the state never counted,
    and the resume would dead-letter them again; the replay must wait for
    the resume, then end where a replay of an uninterrupted run ends."""
    deliveries: Counter[str] = Counter()  # counted apart from the DLQ
    put = DeadLetterQueue.put

    def counting_put(dlq, raw, reason):
        deliveries[raw] += 1
        return put(dlq, raw, reason)

    with monkeypatch.context() as patch:
        patch.setattr(DeadLetterQueue, "put", counting_put)
        run_ingest(POISONED, tmp_path / "reference")
    replay_dlq(tmp_path / "reference")

    run_dir = tmp_path / "killed"
    last = POISONED.n_batches - 1
    _run_killed_before_commit(POISONED, run_dir, last, monkeypatch)
    assert (run_dir / "dlq" / f"batch-{last:04d}.jsonl").exists()
    before = _tree(run_dir)
    with pytest.raises(StreamError, match="unfinished"):
        replay_dlq(run_dir)
    assert _tree(run_dir) == before, "the refused replay wrote something"

    run_ingest(POISONED, run_dir, resume=True)
    replay_dlq(run_dir)
    outcomes = []
    for run in ("reference", "killed"):
        state = run_ingest(POISONED, tmp_path / run, resume=True).state
        left = DeadLetterQueue(tmp_path / run / "dlq").entries()
        assert state.dead_lettered == sum(deliveries[entry.raw] for entry in left)
        outcomes.append((state.fingerprint(), left))
    assert outcomes[0] == outcomes[1]


def test_a_per_record_dlq_is_refused_before_anything_is_written(tmp_path, monkeypatch):
    """Resuming or replaying a run whose ``dlq/`` holds the earlier
    per-record layout must leave the whole run directory as it was."""
    run_dir = tmp_path / "run"
    _run_killed_before_commit(POISONED, run_dir, 2, monkeypatch)
    dlq = run_dir / "dlq"
    for path in dlq.iterdir():
        path.unlink()
    (dlq / "0123456789abcdef.raw").write_text("{broken")
    (dlq / "0123456789abcdef.reason").write_text("not valid JSON\n")
    before = _tree(run_dir)
    with pytest.raises(StreamError, match=r"per-record <digest>\.raw"):
        run_ingest(POISONED, run_dir, resume=True)
    assert _tree(run_dir) == before, "the refused resume wrote something"
    with pytest.raises(StreamError, match=r"per-record <digest>\.raw"):
        replay_dlq(run_dir)
    assert _tree(run_dir) == before, "the refused replay wrote something"


# -- the snapshot encoder -------------------------------------------------------

#: Text that JSON must escape: quotes, backslashes, control characters,
#: non-ASCII, astral and lone-surrogate code points.
_AWKWARD = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7fé€\u2028\U0001f600\ud800'),
        st.characters(),
    ),
    max_size=6,
)
_EVENT = st.builds(
    TrackerEvent,
    event_type=_AWKWARD,
    tracker=st.just("jira"),
    bug_id=_AWKWARD,
    controller=st.just("onos"),
    at=st.builds("2017-01-{:02d}T{}".format, st.integers(1, 28), _AWKWARD),
    payload=st.fixed_dictionaries({}, optional={
        "status": st.one_of(_AWKWARD, st.integers()),
        "labels": st.fixed_dictionaries({"symptom": _AWKWARD, "root_cause": _AWKWARD}),
    }),
)
#: Digests of every decimal length, not only the 19 and 20 of real ones.
_DIGEST = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(0, 10 ** 6))
_BATCHES = st.lists(st.lists(st.tuples(_EVENT, _DIGEST), max_size=10), max_size=4)


#: JSON values nested a few levels deep, with awkward keys and strings.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _AWKWARD),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_AWKWARD, inner, max_size=3)
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(
    event=st.builds(
        TrackerEvent,
        event_type=_AWKWARD, tracker=_AWKWARD, bug_id=_AWKWARD,
        controller=_AWKWARD, at=_AWKWARD,
        payload=st.dictionaries(_AWKWARD, _JSON, max_size=4),
    )
)
def test_event_canonical_is_json_dumps(event):
    """The shared encoder writes what a fresh ``json.dumps`` writes: key
    order, escapes, non-ASCII and nesting included, and so the digests."""
    expected = json.dumps(vars(event), sort_keys=True, separators=(",", ":"))
    assert event.canonical() == expected
    sha = hashlib.sha256(expected.encode("utf-8"))
    assert event.digest() == sha.hexdigest()[:16]
    assert event.digest_int() == int.from_bytes(sha.digest()[:8], "big")


def _canonical_oracle(state: StreamState) -> str:
    return json.dumps(state.to_dict(), sort_keys=True, separators=(",", ":"))


def _assert_encodes_like_json_dumps(state: StreamState) -> None:
    expected = _canonical_oracle(state)
    assert state.canonical_json() == expected
    assert state.fingerprint() == hashlib.sha256(expected.encode("utf-8")).hexdigest()
    data = state.to_dict()
    projection = {key: data[key] for key in ("applied", "seen", "bugs", "by_type", "dist")}
    assert state.analytics_digest() == hashlib.sha256(
        json.dumps(projection, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _fold(state: StreamState, batches, *, learn: bool) -> None:
    """Apply ``batches`` as the ingest step does, checking every boundary."""
    vec = HashingVectorizer(n_features=16)
    for batch in batches:
        rows, labels = [], []
        for event, digest in batch:
            state.consumed += 1
            if digest in state.seen:
                state.deduped += 1
                continue
            state.apply(event, digest)
            if learn and "labels" in event.payload:
                rows.append(vec.transform_tokens([event.bug_id.encode("utf-8", "replace").hex()]))
                labels.append(event.payload["labels"]["symptom"])
        if rows:
            if state.model is None:
                state.model = OnlineLinearSVM(n_features=16, t0=1)
            state.model.partial_fit(rows, labels)
            state.trained += len(rows)
        state.batch_index += 1
        _assert_encodes_like_json_dumps(state)


@settings(max_examples=60, deadline=None)
@given(batches=_BATCHES, more=_BATCHES, learn=st.booleans(), name=_AWKWARD)
def test_canonical_json_is_json_dumps_of_to_dict(batches, more, learn, name):
    state = StreamState(config={"learn": learn, name: name})
    _assert_encodes_like_json_dumps(state)  # before the first batch
    _fold(state, batches, learn=learn)
    clone = StreamState.from_dict(json.loads(state.canonical_json()))
    _assert_encodes_like_json_dumps(clone)
    assert clone.canonical_json() == state.canonical_json()
    _fold(clone, more, learn=learn)  # a restored state keeps encoding right


#: Final fingerprints at the kill smoke's shape, as the snapshots were
#: before they were assembled from member encodings: the bytes must not move.
SMOKE_FINGERPRINTS = {
    7: "dbea11931825b4b13d1679735bb66738ae9f38f629317006a33b1dbd3a01e6a0",
    8: "3a6e4400a86fa766b84b907c766c2d3d1766a9ddcbbb0f0a41a48fb6545d371e",
    9: "b9ce1fbe75a4d06785e86b73f651f14d8fb2b98327f01737eab2937dc3b622f0",
}


@pytest.mark.parametrize("seed", sorted(SMOKE_FINGERPRINTS))
def test_every_committed_snapshot_is_json_dumps_of_to_dict(tmp_path, monkeypatch, seed):
    from repro.stream import ingest

    saved = []

    def checked_save(state, path):
        digest = save_state(state, path)
        assert path.read_text(encoding="utf-8") == _canonical_oracle(state)
        assert digest == state.fingerprint()
        saved.append(digest)
        return digest

    monkeypatch.setattr(ingest, "save_state", checked_save)
    config = IngestConfig(**{**STREAM_CONFIG.to_dict(), "seed": seed})
    report = run_ingest(config, tmp_path / "run")
    assert len(saved) == config.n_batches
    commits = [
        event.digest for event in replay_journal(tmp_path / "run" / "journal.jsonl").events
        if event.event == EVENT_COMMIT
    ]
    assert commits == saved
    assert saved[-1] == SMOKE_FINGERPRINTS[seed]
    assert report.fingerprint == report.state.fingerprint() == saved[-1]
    # A finished run's resume reports the committed digest as its fingerprint.
    again = run_ingest(config, tmp_path / "run", resume=True)
    assert again.fingerprint == again.state.fingerprint() == saved[-1]
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["fingerprint"] == saved[-1]


def test_ingest_config_validation():
    with pytest.raises(StreamError, match="block .* cannot exceed batch"):
        IngestConfig(batch=32, block=64)
    with pytest.raises(StreamError, match="outage_rate"):
        IngestConfig(outage_rate=2.0)
    assert IngestConfig().digest() == IngestConfig().digest()
    assert IngestConfig().digest() != IngestConfig(seed=1).digest()
