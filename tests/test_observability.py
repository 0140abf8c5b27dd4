"""Unit coverage for the observability core: registry, exports, gates.

Covers the instrument semantics (bucket edges, label ordering, ingest),
golden-output tests for the JSONL exporter, hypothesis property tests
(histogram sum/count invariants, export round-trip), the trajectory
regression gate, and the pinned public shapes of ``ArtifactCache.stats()``,
``ServingStats.to_dict()`` and the request-log ``recover()`` dict that
reports consume.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError, TrajectoryGateError
from repro.observability.instrument import ledger_to_metrics
from repro.observability.metrics import MetricsRegistry
from repro.observability.trajectory import DEFAULT_GATES, GateRule, TrajectoryStore


# -- counters / gauges ---------------------------------------------------------
def test_counter_monotone_and_labeled():
    registry = MetricsRegistry()
    counter = registry.counter("req_total", "reqs", labels=["status", "kind"])
    counter.labels(kind="query", status="ok").inc()
    counter.labels(kind="query", status="ok").inc(2.5)
    counter.labels(status="shed", kind="lint").inc()
    assert registry.value("req_total", kind="query", status="ok") == 3.5
    assert registry.value("req_total", kind="lint", status="shed") == 1.0
    # Untouched children read 0 without being created.
    assert registry.value("req_total", kind="nmf", status="ok") == 0.0
    with pytest.raises(ObservabilityError):
        counter.inc(-1)  # unlabeled use of a labeled family also illegal
    with pytest.raises(ObservabilityError):
        counter.labels(kind="query", status="ok").inc(-1)


def test_label_names_are_sorted_and_enforced():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", labels=["zeta", "alpha"])
    assert counter.label_names == ("alpha", "zeta")
    with pytest.raises(ObservabilityError):
        counter.labels(alpha="x")  # missing zeta
    with pytest.raises(ObservabilityError):
        counter.labels(alpha="x", zeta="y", extra="z")


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.inc(-4)
    assert registry.value("depth") == 3.0


def test_reregistration_identical_spec_is_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "help", labels=["k"])
    b = registry.counter("x_total", "other help", labels=["k"])
    assert a is b
    with pytest.raises(ObservabilityError):
        registry.gauge("x_total")  # kind mismatch
    with pytest.raises(ObservabilityError):
        registry.counter("x_total", labels=["k", "j"])  # label mismatch
    registry.histogram("h", buckets=[1.0, 2.0])
    with pytest.raises(ObservabilityError):
        registry.histogram("h", buckets=[1.0, 3.0])  # bucket mismatch
    with pytest.raises(ObservabilityError):
        registry.counter("bad name!")


# -- histograms ----------------------------------------------------------------
def test_histogram_bucket_edges_are_le_semantics():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=[0.1, 1.0, 10.0])
    for value in (0.1, 0.10001, 1.0, 5.0, 10.0, 11.0):
        hist.observe(value)
    [sample] = [s for s in registry.to_dicts() if s["name"] == "lat"]
    # Cumulative: <=0.1 -> 1, <=1.0 -> 3, <=10.0 -> 5, +Inf -> 6.
    assert sample["buckets"] == [
        ["0.1", 1], ["1", 3], ["10", 5], ["+Inf", 6],
    ]
    assert sample["count"] == 6
    assert sample["sum"] == pytest.approx(27.20001)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ObservabilityError):
        registry.histogram("a", buckets=[])
    with pytest.raises(ObservabilityError):
        registry.histogram("b", buckets=[2.0, 1.0])
    with pytest.raises(ObservabilityError):
        registry.histogram("c", buckets=[1.0, 1.0])
    with pytest.raises(ObservabilityError):
        registry.histogram("d", buckets=[1.0, math.inf])


# -- exports -------------------------------------------------------------------
def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter(
        "requests_total", "Total requests", labels=["kind", "status"]
    )
    counter.labels(kind="query", status="full").inc(3)
    registry.gauge("queue_depth", "Depth", labels=["cls"]).labels(
        cls="interactive"
    ).set(7)
    hist = registry.histogram("latency_seconds", "Latency", buckets=[0.1, 1.0])
    hist.observe(0.05)
    hist.observe(5.0)
    return registry


def test_jsonl_golden_output():
    lines = _golden_registry().export_jsonl().splitlines()
    assert lines == [
        '{"buckets":[["0.1",1],["1",1],["+Inf",2]],"count":2,'
        '"help":"Latency","labels":{},"name":"latency_seconds",'
        '"sum":5.05,"time":0.0,"type":"histogram"}',
        '{"help":"Depth","labels":{"cls":"interactive"},'
        '"name":"queue_depth","time":0.0,"type":"gauge","value":7.0}',
        '{"help":"Total requests","labels":{"kind":"query","status":"full"},'
        '"name":"requests_total","time":0.0,"type":"counter","value":3.0}',
    ]


def test_jsonl_round_trip_is_exact():
    exported = _golden_registry().export_jsonl()
    assert MetricsRegistry.from_jsonl(exported).export_jsonl() == exported


def test_registry_clock_stamps_samples():
    ticks = iter([7.25])
    registry = MetricsRegistry(clock=lambda: next(ticks))
    registry.counter("c_total").inc()
    [sample] = registry.to_dicts()
    assert sample["time"] == 7.25


def test_ingest_counters_add_gauges_take_latest():
    a, b = MetricsRegistry(), MetricsRegistry()
    for registry, amount, level in ((a, 2, 1.0), (b, 3, 9.0)):
        registry.counter("c_total").inc(amount)
        registry.gauge("g").set(level)
        registry.histogram("h", buckets=[1.0]).observe(0.5)
    a.ingest(b.to_dicts())
    assert a.value("c_total") == 5.0
    assert a.value("g") == 9.0
    [hist] = [s for s in a.to_dicts() if s["name"] == "h"]
    assert hist["count"] == 2 and hist["buckets"][0] == ["1", 2]
    bad = MetricsRegistry()
    bad.histogram("h", buckets=[2.0]).observe(0.5)
    with pytest.raises(ObservabilityError):
        a.ingest(bad.to_dicts())


def test_thread_safety_under_a_thread_pool():
    from concurrent.futures import ThreadPoolExecutor

    registry = MetricsRegistry()
    counter = registry.counter("work_total")
    hist = registry.histogram("work_size", buckets=[10.0, 100.0])

    def work(n: int) -> int:
        for _ in range(50):
            counter.inc()
        hist.observe(float(n))
        return n

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, list(range(40))))
    assert results == list(range(40))
    assert registry.value("work_total") == 2000.0
    [sample] = [s for s in registry.to_dicts() if s["name"] == "work_size"]
    assert sample["count"] == 40


# -- hypothesis properties -----------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=80,
    )
)
def test_histogram_sum_count_invariants(values):
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=[1.0, 100.0, 10000.0])
    for value in values:
        hist.observe(value)
    [sample] = registry.to_dicts()
    counts = [count for _, count in sample["buckets"]]
    # Cumulative counts are monotone and end at the total observation count.
    assert counts == sorted(counts)
    assert counts[-1] == len(values) == sample["count"]
    assert sample["sum"] == pytest.approx(sum(values), rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alpha_total", "beta_total", "gamma_total"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=30,
    )
)
def test_export_round_trip_property(increments):
    registry = MetricsRegistry()
    for name, label, amount in increments:
        registry.counter(name, labels=["shard"]).labels(shard=label).inc(amount)
    exported = registry.export_jsonl()
    rebuilt = MetricsRegistry.from_jsonl(exported)
    assert rebuilt.export_jsonl() == exported


# -- trajectory gate -----------------------------------------------------------
def _write_trajectory(path, goodput, ratio=5.0, p99=20.0):
    TrajectoryStore(path).record({
        "bench": "serving_overload_ab",
        "goodput_hardened": goodput,
        "goodput_ratio": ratio,
        "p99_hardened": p99,
    })


def test_trajectory_record_refreshes_in_place(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.json")
    assert store.record({"bench": "a", "x": 1.0}) is None
    store.record({"bench": "b", "x": 9.0})
    previous = store.record({"bench": "a", "x": 2.0})
    assert previous == {"bench": "a", "x": 1.0}
    entries = store.load()
    assert [e["bench"] for e in entries] == ["a", "b"]
    assert store.entry("a")["x"] == 2.0
    with pytest.raises(ObservabilityError):
        store.record({"x": 1.0})


def test_trajectory_baseline_accepts_itself(tmp_path):
    path = tmp_path / "traj.json"
    _write_trajectory(path, goodput=8.0)
    results = TrajectoryStore(path).check()
    assert len(results) == 3 and all(r.passed for r in results)


def test_trajectory_rejects_20pct_goodput_regression(tmp_path):
    baseline, candidate = tmp_path / "base.json", tmp_path / "cand.json"
    _write_trajectory(baseline, goodput=8.0, ratio=5.0)
    _write_trajectory(candidate, goodput=8.0 * 0.8, ratio=5.0)
    with pytest.raises(TrajectoryGateError, match="goodput_hardened"):
        TrajectoryStore(baseline).check(candidate)


def test_trajectory_accepts_within_tolerance(tmp_path):
    baseline, candidate = tmp_path / "base.json", tmp_path / "cand.json"
    _write_trajectory(baseline, goodput=8.0, p99=20.0)
    _write_trajectory(candidate, goodput=8.0 * 0.95, p99=20.0 * 1.2)
    results = TrajectoryStore(baseline).check(candidate)
    assert all(r.passed for r in results)


def test_trajectory_missing_gated_metric_is_an_error(tmp_path):
    baseline, candidate = tmp_path / "base.json", tmp_path / "cand.json"
    _write_trajectory(baseline, goodput=8.0)
    TrajectoryStore(candidate).record({"bench": "serving_overload_ab"})
    with pytest.raises(ObservabilityError, match="missing"):
        TrajectoryStore(baseline).check(candidate)


def test_committed_trajectory_passes_default_gates():
    """The seeded PR-7 entry must satisfy the committed gate rules."""
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "BENCH_trajectory.json"
    results = TrajectoryStore(path).check()
    assert len(results) == len(DEFAULT_GATES)
    assert all(r.passed for r in results)


def test_gate_rule_parse_and_validation():
    rule = GateRule.parse("bench:metric:lower:0.25")
    assert (rule.bench, rule.metric, rule.direction, rule.tolerance) == (
        "bench", "metric", "lower", 0.25
    )
    for bad in ("a:b:c", "a:b:sideways:0.1", "a:b:higher:lots"):
        with pytest.raises(ObservabilityError):
            GateRule.parse(bad)


@pytest.mark.parametrize(
    ("spec", "candidate", "bound", "passed"),
    [
        ("b:m:higher:0.1", 9.0, 9.0, True),
        ("b:m:higher:0.1", 8.9, 9.0, False),
        ("b:m:lower:0.25", 5.0, 5.0, True),
        ("b:m:lower:0.25", 5.1, 5.0, False),
        ("b:m:higher:0", 10.0, 10.0, True),
    ],
    ids=["higher-at-floor", "higher-below", "lower-at-ceiling", "lower-above",
         "zero-tolerance-equal"],
)
def test_gate_rule_bound_is_inclusive(spec, candidate, bound, passed):
    rule = GateRule.parse(spec)
    baseline = 10.0 if rule.direction == "higher" else 4.0
    result = rule.evaluate(baseline, candidate)
    assert result.bound == pytest.approx(bound)
    assert result.passed is passed


def test_gate_result_describes_verdict_and_bound():
    rule = GateRule.parse("serving:goodput:higher:0.1")
    assert rule.evaluate(10.0, 9.5).describe() == (
        "serving:goodput [ok] candidate=9.5 >= bound=9 "
        "(baseline=10, tol=0.1 higher-is-better)"
    )
    assert "[REGRESSION] candidate=8 >= bound=9" in rule.evaluate(10.0, 8.0).describe()


# -- pinned public shapes (regression tests) -----------------------------------
def test_artifact_cache_stats_keys_are_pinned(tmp_path):
    from repro.parallel import ArtifactCache

    cache = ArtifactCache(tmp_path / "cache")
    cache.put("ns", {"k": 1}, "value")
    cache.lookup("ns", {"k": 1})
    cache.lookup("ns", {"k": 2})
    assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 0, "stored": 1}


def test_serving_stats_keys_are_pinned():
    from repro.serving import ServingStats

    assert sorted(ServingStats().to_dict()) == [
        "admitted", "batched_requests", "batches", "completed_full",
        "degraded_batches", "delivery_waits", "errors", "expired",
        "served_heuristic", "shed", "slow_clients_aborted",
        "submitted",
    ]


def test_requestlog_recover_keys_are_pinned(tmp_path):
    from repro.serving import RequestLog, recover
    from repro.serving.request import RequestFactory, RequestKind

    factory = RequestFactory()
    log = RequestLog(tmp_path / "req.journal", {})
    first = factory.make(RequestKind.CLASSIFY, arrival=0.0, payload="a")
    second = factory.make(RequestKind.CLASSIFY, arrival=0.0, payload="b")
    log.log_admit(first)
    log.log_admit(second)
    log.log_complete(first, _ok_response(first))
    log.journal.close()  # crash: second stays in flight

    recovered = recover(tmp_path / "req.journal")
    assert sorted(recovered) == ["finished", "inflight"]
    assert recovered["finished"] == [first.req_id]
    assert recovered["inflight"] == [second.req_id]


def _ok_response(request):
    from repro.serving.request import Response, ResponseStatus, ServiceTier

    return Response(
        req_id=request.req_id,
        kind=request.kind,
        status=ResponseStatus.OK,
        tier=ServiceTier.FULL,
        arrival=request.arrival,
        completed=1.0,
        latency=1.0,
    )


# -- bridges -------------------------------------------------------------------
def test_ledger_bridge_counts_and_prices():
    from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
    from repro.taxonomy import Symptom, Trigger

    ledger = ResilienceLedger()
    ledger.record(ResilienceEvent.RETRY, "backend", delay=0.5,
                  trigger=Trigger.EXTERNAL_CALLS, symptom=Symptom.FAIL_STOP)
    ledger.record(ResilienceEvent.RETRY, "backend", delay=1.5)
    ledger.record(ResilienceEvent.SHED, "admission")
    ledger.record(ResilienceEvent.GIVE_UP, "deadline", delay=2.0)
    registry = ledger_to_metrics(ledger)
    assert registry.value(
        "resilience_actions_total", component="backend", event="retry"
    ) == 2.0
    assert registry.value(
        "resilience_actions_total", component="admission", event="shed"
    ) == 1.0
    assert registry.value(
        "resilience_recovery_seconds_total", component="backend", event="retry"
    ) == 2.0
    assert registry.value(
        "resilience_triggers_total", trigger=Trigger.EXTERNAL_CALLS.value
    ) == 1.0
    assert registry.value(
        "resilience_symptoms_total", symptom=Symptom.FAIL_STOP.value
    ) == 1.0


def test_fuzz_state_metrics_projection():
    from repro.fuzzing.campaign import state_metrics
    from repro.fuzzing.corpus import CorpusEntry, FuzzState

    state = FuzzState(config={})
    state.executed = 40
    state.violated_runs = 6
    state.batch_index = 1
    state.coverage = {"t1", "t2", "t3"}
    state.signatures = {"viol:a:b:0:c"}
    state.corpus = [
        CorpusEntry(entry_id=0, origin="seed", parent=None, schedule=[],
                    new_tokens=("t1", "t2"), violated=True),
        CorpusEntry(entry_id=1, origin="mutate", parent=0, schedule=[],
                    new_tokens=("t3",), violated=False),
    ]
    registry = state_metrics(state)
    assert registry.value("fuzz_schedules_total") == 40.0
    assert registry.value("fuzz_violated_runs_total") == 6.0
    assert registry.value("fuzz_batches_total") == 2.0
    assert registry.value("fuzz_coverage_tokens") == 3.0
    assert registry.value("fuzz_corpus_entries") == 2.0
    # Energy: entry0 = min(2,8)+4+1 = 7, entry1 = 1+0+1 = 2.
    assert registry.value("fuzz_corpus_energy") == 9.0
    [hist] = [
        s for s in registry.to_dicts()
        if s["name"] == "fuzz_new_tokens_per_entry"
    ]
    assert hist["count"] == 2


def test_pipeline_result_metrics_projection():
    from repro.pipeline.scaling import PipelineResult, StageTiming, result_metrics

    result = PipelineResult(seed=0, jobs=1)
    result.stages = [
        StageTiming("corpus", 0.2, cache_hit=False),
        StageTiming("tfidf", 0.05, cache_hit=True),
        StageTiming("nmf", 0.4, cache_hit=False),
    ]
    result.skipped_stages = ["nmf"]
    result.n_documents, result.n_features = 300, 1200
    registry = result_metrics(result)
    assert registry.value("pipeline_stages_total", outcome="computed") == 1.0
    assert registry.value("pipeline_stages_total", outcome="cache_hit") == 1.0
    assert registry.value("pipeline_stages_total", outcome="journal_skip") == 1.0
    assert registry.value("pipeline_documents") == 300.0


def test_pipeline_metrics_export_is_byte_identical_for_the_same_seed():
    from repro.pipeline.scaling import run_pipeline

    exports = []
    for _ in range(2):
        registry = MetricsRegistry()
        run_pipeline(
            seed=3, jobs=1, dimensions=("bug_type",), n_topics=2,
            nmf_restarts=2, metrics=registry,
        )
        exports.append(registry.export_jsonl())
    assert exports[0] == exports[1]


def test_jsonl_import_rejects_garbage():
    with pytest.raises(ObservabilityError, match="line 1"):
        MetricsRegistry.from_jsonl("not json\n")
    bad_type = json.dumps({
        "name": "x", "type": "mystery", "labels": {}, "value": 1,
    })
    with pytest.raises(ObservabilityError, match="mystery"):
        MetricsRegistry.from_jsonl(bad_type + "\n")
