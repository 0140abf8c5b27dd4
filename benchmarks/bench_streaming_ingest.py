"""Million-event acceptance gate for the streaming ingestion plane.

The paper's corpus is a snapshot: II-B freezes tracker state once and
analyzes it offline.  :mod:`repro.stream` is the same measurement run as
a *process* — events arrive continuously from sources that fail — and
this bench is the evidence that the plane holds its robustness contract
at a scale three orders of magnitude past the 795-bug study corpus:

* **exact accounting at >= 1M events under faults** — every record the
  flaky source emits is applied, deduplicated, dead-lettered, or counted
  as lost upstream with a priced ``GIVE_UP``; the unaccounted remainder
  is exactly zero;
* **duplication/reordering are analytically invisible** — a faulty arm
  whose only faults are duplicates and reorders converges to the same
  analytics digest as a clean arm over the same event population;
* **online learning keeps up with batch** — the ``partial_fit`` SVM
  lands within 2 accuracy points of the offline :class:`LinearSVM`
  on the study corpus under an identical hashed feature space.

Counters land in ``benchmarks/BENCH_trajectory.json`` where they are
gated at zero tolerance (they are pure functions of seed + config);
events/s is recorded ungated.
"""

from __future__ import annotations

import pathlib
import random
import re
import time

from conftest import once

from repro.ml.svm import LinearSVM
from repro.observability.trajectory import TrajectoryStore
from repro.resilience.ledger import ResilienceEvent
from repro.stream import (
    FlakySource,
    HashingVectorizer,
    IngestConfig,
    OnlineLinearSVM,
    run_ingest,
    synthetic_event,
)

TRAJECTORY = pathlib.Path(__file__).parent / "BENCH_trajectory.json"

#: The million-event gate config.  The outage depth exceeds the retry
#: budget, so some blocks are genuinely lost — the point is that the
#: loss is *priced*, not avoided.
MILLION = IngestConfig(
    seed=2020,
    events=1_000_000,
    batch=131_072,
    block=2048,
    pool=150_000,
    outage_rate=0.08,
    outage_depth=5,
    rate_limit_rate=0.04,
    corrupt_rate=0.01,
    duplicate_rate=0.05,
    reorder_rate=0.2,
    queue_capacity=4096,
    retry_attempts=3,
)

_TOKEN = re.compile(r"[a-z][a-z0-9_]+")


def _emitted(config: IngestConfig) -> int:
    """Regenerate every wire block independently and count records —
    the external audit that the source's purity makes affordable."""
    source = FlakySource(
        lambda i: synthetic_event(config.seed, i, pool=config.pool),
        config.events,
        mix=config.mix(),
        seed=config.seed,
        block_size=config.block,
    )
    return sum(len(source.wire_block(b)) for b in range(source.n_blocks))


def test_bench_million_event_accounting(benchmark, tmp_path):
    """>= 1M events under the full fault catalog: zero unaccounted."""

    def run():
        start = time.perf_counter()
        report = run_ingest(MILLION, tmp_path / "million")
        return report, time.perf_counter() - start

    report, elapsed = once(benchmark, run)
    state = report.state
    unaccounted = state.consumed - (
        state.applied + state.deduped + state.dead_lettered
    )
    give_ups = report.ledger.count(ResilienceEvent.GIVE_UP)
    rate = state.consumed / elapsed
    print()
    print(f"  {report.summary()}")
    print(f"  {rate:,.0f} events/s over {elapsed:.1f}s wall "
          f"({report.batches_executed} batches, "
          f"{state.max_queue_depth} peak queue depth)")

    assert state.consumed >= 1_000_000 - state.lost_upstream
    # Gate 1: the accounting identity, with zero remainder.
    assert unaccounted == 0, f"{unaccounted} events unaccounted"
    # Gate 2: every abandoned block is priced in the ledger.
    assert give_ups == state.blocks_abandoned
    assert state.lost_upstream > 0, "outage depth never beat the retry budget"
    # Gate 3: every fault class actually fired at this scale.
    assert state.deduped > 0 and state.dead_lettered > 0
    assert state.retries > 0 and state.rate_limited > 0

    entry = {
        "bench": "streaming_ingest",
        "events": MILLION.events,
        "consumed": state.consumed,
        "applied": state.applied,
        "deduped": state.deduped,
        "dead_lettered": state.dead_lettered,
        "lost_upstream": state.lost_upstream,
        "unaccounted": unaccounted,
        "retries": state.retries,
        "give_ups": give_ups,
        "bugs_tracked": len(state.bugs),
        "events_per_sec": round(rate, 1),
    }
    TrajectoryStore(TRAJECTORY).record(entry)


def test_bench_duplication_is_invisible(benchmark, tmp_path):
    """Duplicates + reorders: same analytics digest as the clean arm.

    Emitted-record conservation is audited externally by regenerating
    every wire block, independent of either run.
    """
    clean = IngestConfig(seed=11, events=60_000, batch=8192, block=256,
                         pool=12_000, learn=False)
    noisy = IngestConfig(seed=11, events=60_000, batch=8192, block=256,
                         pool=12_000, duplicate_rate=0.15, reorder_rate=0.4,
                         learn=False)

    def run():
        return (run_ingest(clean, tmp_path / "clean"),
                run_ingest(noisy, tmp_path / "noisy"))

    clean_report, noisy_report = once(benchmark, run)
    cs, ns = clean_report.state, noisy_report.state
    print()
    print(f"  clean: {clean_report.summary()}")
    print(f"  noisy: {noisy_report.summary()}")

    assert cs.consumed == cs.applied == clean.events
    assert cs.deduped == cs.dead_lettered == cs.lost_upstream == 0
    # The noisy arm consumed strictly more records but applied exactly
    # the same unique events — its *analytics* are bit-identical.
    assert ns.consumed > cs.consumed
    assert ns.deduped == ns.consumed - cs.consumed
    assert ns.analytics_digest() == cs.analytics_digest()
    # External conservation audit for both arms.
    for config, state in ((clean, cs), (noisy, ns)):
        assert _emitted(config) == state.consumed + state.lost_upstream


def test_bench_online_within_two_points_of_batch(benchmark, dataset):
    """``partial_fit`` symptom accuracy >= batch accuracy - 2 points."""
    bugs = list(dataset)
    vec = HashingVectorizer(n_features=4096, seed=0)
    rows, labels = [], []
    for bug in bugs:
        text = f"{bug.report.title} {bug.report.description}".lower()
        rows.append(vec.transform_tokens(_TOKEN.findall(text)))
        labels.append(bug.label.symptom.value)
    order = list(range(len(bugs)))
    random.Random(0).shuffle(order)
    split = (3 * len(order)) // 4
    train_idx, test_idx = order[:split], order[split:]

    def run():
        batch = LinearSVM(seed=0)
        batch.fit(
            vec.to_dense([rows[i] for i in train_idx]),
            [labels[i] for i in train_idx],
        )
        batch_pred = batch.predict(vec.to_dense([rows[i] for i in test_idx]))

        online = OnlineLinearSVM(n_features=4096, t0=len(train_idx))
        epoch_rng = random.Random(0)
        for _ in range(40):
            epoch = list(train_idx)
            epoch_rng.shuffle(epoch)
            online.partial_fit([rows[i] for i in epoch],
                               [labels[i] for i in epoch])
        online_pred = online.predict([rows[i] for i in test_idx])
        return batch_pred, online_pred

    batch_pred, online_pred = once(benchmark, run)
    truth = [labels[i] for i in test_idx]
    batch_acc = sum(p == t for p, t in zip(batch_pred, truth)) / len(truth)
    online_acc = sum(p == t for p, t in zip(online_pred, truth)) / len(truth)
    print()
    print(f"  batch  LinearSVM       symptom accuracy {batch_acc:.3f}")
    print(f"  online OnlineLinearSVM symptom accuracy {online_acc:.3f} "
          f"({len(train_idx)} train / {len(truth)} test)")
    assert online_acc >= batch_acc - 0.02, (
        f"online {online_acc:.3f} more than 2 points below batch {batch_acc:.3f}"
    )
