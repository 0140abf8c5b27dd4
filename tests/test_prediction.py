"""Log/metrics-based crash prediction (SS IV research direction)."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.prediction import (
    CrashKind,
    CrashPredictor,
    TraceGenerator,
    evaluate_predictor,
)
from repro.prediction.predictor import window_features


@pytest.fixture(scope="module")
def fitted_predictor():
    train = TraceGenerator(seed=1).generate_mixed(per_kind=15)
    return CrashPredictor(seed=0).fit(train)


@pytest.fixture(scope="module")
def test_traces():
    return TraceGenerator(seed=99).generate_mixed(per_kind=10)


class TestTraces:
    def test_healthy_traces_do_not_crash(self):
        trace = TraceGenerator(seed=0).generate(CrashKind.NONE)
        assert not trace.crashed
        assert trace.samples

    def test_crashing_traces_end_at_crash(self):
        trace = TraceGenerator(seed=0).generate(CrashKind.MEMORY_LEAK)
        assert trace.crashed
        assert trace.samples[-1].time <= trace.crash_time

    def test_memory_ramp_visible(self):
        trace = TraceGenerator(seed=3).generate(CrashKind.MEMORY_LEAK)
        early = trace.samples[0].heap_mb
        late = trace.samples[-1].heap_mb
        assert late > early + 1000

    def test_logic_crash_is_silent(self):
        """The unpredictable class: telemetry stays near baseline."""
        trace = TraceGenerator(seed=3).generate(CrashKind.LOGIC)
        heaps = [s.heap_mb for s in trace.samples]
        assert max(heaps) - min(heaps) < 300  # noise only, no ramp

    def test_deterministic(self):
        a = TraceGenerator(seed=4).generate(CrashKind.LOAD, index=2)
        b = TraceGenerator(seed=4).generate(CrashKind.LOAD, index=2)
        assert a.crash_time == b.crash_time
        assert a.samples == b.samples

    def test_window_before(self):
        trace = TraceGenerator(seed=0).generate(CrashKind.NONE)
        window = trace.window_before(300.0, 100.0)
        assert all(200.0 <= s.time < 300.0 for s in window)

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            TraceGenerator().generate_mixed(per_kind=0)


class TestFeatures:
    def test_slope_positive_on_ramp(self):
        trace = TraceGenerator(seed=5).generate(CrashKind.MEMORY_LEAK)
        assert trace.crash_time is not None
        window = trace.window_before(trace.crash_time, 180.0)
        features = window_features(window)
        heap_slope = features[1]
        assert heap_slope > 0.5  # MB per second, clearly climbing

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError):
            window_features([])


class TestPredictor:
    def test_predictable_kinds_high_recall(self, fitted_predictor, test_traces):
        report = evaluate_predictor(fitted_predictor, test_traces)
        assert report.recall(CrashKind.MEMORY_LEAK) >= 0.8
        assert report.recall(CrashKind.LOAD) >= 0.8

    def test_logic_crashes_unpredictable(self, fitted_predictor, test_traces):
        """The paper's caveat, reproduced: no telemetry warning exists for
        missing-logic/config crashes, so no predictor can see them coming."""
        report = evaluate_predictor(fitted_predictor, test_traces)
        assert report.recall(CrashKind.LOGIC) <= 0.2

    def test_low_false_alarm_rate(self, fitted_predictor, test_traces):
        report = evaluate_predictor(fitted_predictor, test_traces)
        assert report.false_alarm_rate <= 0.2

    def test_lead_time_is_material(self, fitted_predictor, test_traces):
        report = evaluate_predictor(fitted_predictor, test_traces)
        assert report.lead_time[CrashKind.MEMORY_LEAK] > 60.0

    def test_crash_probability_ordering(self, fitted_predictor):
        leak = TraceGenerator(seed=7).generate(CrashKind.MEMORY_LEAK)
        healthy = TraceGenerator(seed=7).generate(CrashKind.NONE)
        assert leak.crash_time is not None
        hot = fitted_predictor.crash_probability(
            leak.window_before(leak.crash_time, 180.0)
        )
        cold = fitted_predictor.crash_probability(
            healthy.window_before(900.0, 180.0)
        )
        assert hot > cold

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            CrashPredictor(window=0)
