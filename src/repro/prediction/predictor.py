"""The crash predictor: windowed telemetry features -> crash-within-horizon.

Training examples are sliding windows over telemetry traces: a window is
*positive* if the trace crashes within ``horizon`` seconds of the window's
end.  Features capture levels and slopes of heap, queue, latency, and error
rate — exactly what the metric/syslog-based predictors the paper cites
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotFittedError, ReproError
from repro.ml.logistic import LogisticRegression
from repro.prediction.traces import CrashKind, TelemetrySample, TelemetryTrace

_FEATURE_NAMES = (
    "heap_mean", "heap_slope",
    "queue_mean", "queue_slope",
    "latency_mean", "latency_slope",
    "error_mean", "error_slope",
)


def _slope(times: np.ndarray, values: np.ndarray) -> float:
    if len(times) < 2:
        return 0.0
    t = times - times.mean()
    denom = float(t @ t)
    if denom == 0.0:
        return 0.0
    return float(t @ (values - values.mean()) / denom)


def window_features(samples: list[TelemetrySample]) -> np.ndarray:
    """Level + slope features for one telemetry window."""
    if not samples:
        raise ReproError("cannot featurize an empty window")
    times = np.array([s.time for s in samples])
    columns = {
        "heap": np.array([s.heap_mb for s in samples]),
        "queue": np.array([s.queue_depth for s in samples]),
        "latency": np.array([s.api_latency_ms for s in samples]),
        "error": np.array([s.error_rate for s in samples]),
    }
    features: list[float] = []
    for values in columns.values():
        features.append(float(values.mean()))
        features.append(_slope(times, values))
    return np.array(features)


class CrashPredictor:
    """Predict whether the controller will crash within ``horizon`` seconds.

    Parameters
    ----------
    window:
        Telemetry lookback used for features, in seconds.
    horizon:
        Prediction horizon: a positive example crashes within this many
        seconds after the window.
    """

    #: Alarm threshold on the crash probability.
    threshold = 0.5

    def __init__(
        self,
        *,
        window: float = 180.0,
        horizon: float = 240.0,
        seed: int = 0,
    ) -> None:
        if window <= 0 or horizon <= 0:
            raise ReproError("window and horizon must be positive")
        self.window = window
        self.horizon = horizon
        self.seed = seed
        self._model: LogisticRegression | None = None

    # -- dataset construction ----------------------------------------------------
    def _examples(
        self, traces: list[TelemetryTrace]
    ) -> tuple[np.ndarray, list[int]]:
        X: list[np.ndarray] = []
        y: list[int] = []
        for trace in traces:
            if not trace.samples:
                continue
            end_time = trace.samples[-1].time
            t = self.window
            while t <= end_time:
                window = trace.window_before(t, self.window)
                if window:
                    positive = (
                        trace.crash_time is not None
                        and t <= trace.crash_time <= t + self.horizon
                    )
                    X.append(window_features(window))
                    y.append(1 if positive else 0)
                t += self.window / 2.0  # 50% overlap
        if not X:
            raise ReproError("no training windows produced")
        return np.vstack(X), y

    def fit(self, traces: list[TelemetryTrace]) -> "CrashPredictor":
        X, y = self._examples(traces)
        self._model = LogisticRegression(
            learning_rate=0.3, n_iterations=800, positive_label=1
        )
        self._model.fit(X, y)
        return self

    # -- inference -----------------------------------------------------------------
    def crash_probability(self, samples: list[TelemetrySample]) -> float:
        """P(crash within horizon) given one window of telemetry."""
        if self._model is None:
            raise NotFittedError("CrashPredictor used before fit")
        return float(self._model.predict_proba(window_features(samples).reshape(1, -1))[0])

    def first_alarm(self, trace: TelemetryTrace) -> float | None:
        """Earliest time the alarm fires on a trace (None if never)."""
        if not trace.samples:
            return None
        end_time = trace.samples[-1].time
        t = self.window
        while t <= end_time:
            window = trace.window_before(t, self.window)
            if window and self.crash_probability(window) >= self.threshold:
                return t
            t += self.window / 2.0
        return None


@dataclass
class PredictionReport:
    """Evaluation of the predictor per crash kind."""

    #: Per kind: (crashes predicted in advance, total crashes).
    detected: dict[CrashKind, tuple[int, int]] = field(default_factory=dict)
    #: Mean warning lead time (s) for predicted crashes, per kind.
    lead_time: dict[CrashKind, float] = field(default_factory=dict)
    #: False-alarm rate on healthy traces.
    false_alarm_rate: float = 0.0

    def recall(self, kind: CrashKind) -> float:
        hits, total = self.detected.get(kind, (0, 0))
        return hits / total if total else 0.0


def evaluate_predictor(
    predictor: CrashPredictor, traces: list[TelemetryTrace]
) -> PredictionReport:
    """Score a fitted predictor on held-out traces."""
    report = PredictionReport()
    healthy_alarms = 0
    healthy_total = 0
    leads: dict[CrashKind, list[float]] = {}
    for trace in traces:
        alarm_at = predictor.first_alarm(trace)
        if trace.crash_kind is CrashKind.NONE:
            healthy_total += 1
            if alarm_at is not None:
                healthy_alarms += 1
            continue
        hits, total = report.detected.get(trace.crash_kind, (0, 0))
        assert trace.crash_time is not None
        predicted_in_time = alarm_at is not None and alarm_at <= trace.crash_time
        report.detected[trace.crash_kind] = (
            hits + (1 if predicted_in_time else 0),
            total + 1,
        )
        if predicted_in_time:
            leads.setdefault(trace.crash_kind, []).append(
                trace.crash_time - alarm_at
            )
    for kind, values in leads.items():
        report.lead_time[kind] = sum(values) / len(values)
    report.false_alarm_rate = (
        healthy_alarms / healthy_total if healthy_total else 0.0
    )
    return report
