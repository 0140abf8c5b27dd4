"""Online learning over the event stream: nothing ever needs a full retrain.

Three pieces, all bounded-memory in corpus size:

- :class:`HashingVectorizer` — the hashing trick: tokens map to a fixed
  number of signed feature slots through a seeded CRC32, so the feature
  space never grows no matter how many distinct tokens a million-bug
  stream produces.  No vocabulary, no fitting, O(1) memory.

- :class:`OnlineLinearSVM` — one-vs-rest Pegasos SGD exposed as
  ``partial_fit`` minibatches.  Each step is the batch trainer's own
  :func:`~repro.ml.svm.pegasos_step` on a hashed row: weights are kept
  as ``w = scale · v``, so a step costs O(nnz), not O(n_features).  The
  classes' ``v`` are the rows of one matrix, so a row's margins for every
  class are summed in one call before its per-class steps.
  Serialization round-trips bit-exactly (JSON floats use ``repr``),
  which the kill/resume bit-identity of the ingest pipeline depends on.

- :class:`RollingDistribution` — windowed symptom×root-cause counts in
  *event-time* day buckets.  All buckets are retained and the window is
  applied at query time, so the distribution a consumer reads is a pure
  function of the *set* of applied events — independent of arrival order,
  which is what the permutation/duplication invariance property checks.
"""

from __future__ import annotations

import bisect
import zlib
from datetime import date
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import StreamError
from repro.ml.svm import (
    WEIGHT_CAP,
    SparseRow,
    balanced_weight,
    pegasos_step,
)


class HashingVectorizer:
    """Seeded hashing-trick vectorizer over pre-tokenized text."""

    def __init__(self, *, n_features: int = 4096, seed: int = 0) -> None:
        if n_features < 2 or n_features & (n_features - 1):
            raise StreamError(
                f"n_features must be a power of two >= 2, got {n_features}"
            )
        self.n_features = n_features
        self.seed = seed
        self._mask = n_features - 1

    def transform_tokens(self, tokens: Iterable[str]) -> SparseRow:
        """One L2-normalized sparse row, its slots in first-seen order."""
        row: dict[int, float] = {}
        for token in tokens:
            h = zlib.crc32(f"{self.seed}:{token}".encode("utf-8"))
            slot = (h >> 1) & self._mask
            sign = 1.0 if h & 1 else -1.0
            row[slot] = row.get(slot, 0.0) + sign
        norm = sum(value * value for value in row.values()) ** 0.5
        if norm > 0.0:
            row = {slot: value / norm for slot, value in row.items()}
        cols = [slot for slot, value in row.items() if value != 0.0]
        return SparseRow(
            np.array(cols, dtype=np.intp), np.array([row[slot] for slot in cols])
        )

    def to_dense(self, rows: Sequence[SparseRow]) -> np.ndarray:
        """Materialize sparse rows as a dense matrix (for batch baselines)."""
        X = np.zeros((len(rows), self.n_features))
        for i, row in enumerate(rows):
            X[i, row.cols] = row.vals
        return X


class OnlineLinearSVM:
    """One-vs-rest Pegasos SVM trained through ``partial_fit`` minibatches.

    Parameters mirror :class:`repro.ml.svm.LinearSVM` where they overlap;
    ``t0`` plays the role of the batch trainer's one-virtual-epoch step
    damping (``t = n_samples`` there), and balanced class weights are
    computed from *running* label counts — after one pass they converge to
    the batch trainer's capped balanced weights.
    """

    def __init__(
        self,
        *,
        n_features: int = 4096,
        regularization: float = 1e-3,
        t0: int = 100,
        class_weight: str | None = "balanced",
    ) -> None:
        if n_features < 1:
            raise StreamError(f"n_features must be >= 1, got {n_features}")
        if regularization <= 0:
            raise StreamError("regularization must be > 0")
        if t0 < 1:
            raise StreamError(f"t0 must be >= 1, got {t0}")
        if class_weight not in (None, "balanced"):
            raise StreamError("class_weight must be None or 'balanced'")
        self.n_features = n_features
        self.regularization = regularization
        self.t0 = t0
        self.class_weight = class_weight
        self.t = t0
        self.counts: dict[str, int] = {}
        self._classes: list[str] = []  # sorted
        self._v = np.zeros((0, n_features))  # row i belongs to _classes[i]
        self._scale: dict[str, float] = {}
        self._bias: dict[str, float] = {}

    # -- training --------------------------------------------------------------
    @property
    def classes_(self) -> list[str]:
        return list(self._classes)

    @property
    def samples_seen(self) -> int:
        return self.t - self.t0

    def _ensure_class(self, label: str) -> None:
        if label not in self._scale:
            at = bisect.bisect(self._classes, label)
            self._classes.insert(at, label)
            self._v = np.insert(self._v, at, 0.0, axis=0)
            self._scale[label] = 1.0
            self._bias[label] = 0.0
            self.counts.setdefault(label, 0)

    def _dots(self, row: SparseRow) -> list[float]:
        """``row_dot`` of every class's ``v`` in one call.  Accumulating
        along a matrix row is the same left-to-right sum, and a step changes
        only its own class's row, so the sums hold for all of a row's steps."""
        if not row.cols.size:
            return [0.0] * len(self._classes)
        return np.add.accumulate(self._v[:, row.cols] * row.vals, axis=1)[:, -1].tolist()

    def partial_fit(
        self, rows: Sequence[SparseRow], labels: Sequence[str]
    ) -> "OnlineLinearSVM":
        """One SGD pass over the minibatch, in the given order."""
        if len(rows) != len(labels):
            raise StreamError("rows and labels have different lengths")
        lam = self.regularization
        for row, label in zip(rows, labels):
            self._ensure_class(label)
            self.t += 1
            self.counts[label] = self.counts.get(label, 0) + 1
            eta = 1.0 / (lam * self.t)
            for i, (cls, dot) in enumerate(zip(self._classes, self._dots(row))):
                positive = cls == label
                weight = 1.0
                if self.class_weight is not None:
                    weight = balanced_weight(self.samples_seen, self.counts.get(cls, 0), positive)
                self._scale[cls], self._bias[cls] = pegasos_step(
                    self._v[i], self._scale[cls], self._bias[cls], row,
                    1.0 if positive else -1.0, eta, lam, weight, dot,
                )
        return self

    # -- inference -------------------------------------------------------------
    def decision_function(self, rows: Sequence[SparseRow]) -> np.ndarray:
        if not self._classes:
            raise StreamError("OnlineLinearSVM has seen no labeled samples yet")
        scores = np.zeros((len(rows), len(self._classes)))
        for i, row in enumerate(rows):
            scores[i] = [
                self._scale[cls] * dot + self._bias[cls]
                for cls, dot in zip(self._classes, self._dots(row))
            ]
        return scores

    def predict(self, rows: Sequence[SparseRow]) -> list[str]:
        scores = self.decision_function(rows)
        classes = self.classes_
        return [classes[int(i)] for i in np.argmax(scores, axis=1)]

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "n_features": self.n_features,
            "regularization": self.regularization,
            "t0": self.t0,
            "class_weight": self.class_weight,
            "weight_cap": WEIGHT_CAP,
            "t": self.t,
            "counts": {cls: self.counts[cls] for cls in sorted(self.counts)},
            "classes": {
                cls: {
                    "scale": self._scale[cls],
                    "bias": self._bias[cls],
                    "v": v.tolist(),
                }
                for cls, v in zip(self._classes, self._v)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OnlineLinearSVM":
        model = cls(
            n_features=int(data["n_features"]),
            regularization=float(data["regularization"]),
            t0=int(data["t0"]),
            class_weight=data.get("class_weight"),
        )
        model.t = int(data["t"])
        model.counts = {str(k): int(v) for k, v in data["counts"].items()}
        model._classes = sorted(data["classes"])
        rows = []
        for name in model._classes:
            packed = data["classes"][name]
            vec = np.asarray(packed["v"], dtype=np.float64)
            if vec.shape != (model.n_features,):
                raise StreamError(
                    f"class {name!r}: weight vector has shape {vec.shape}, "
                    f"expected ({model.n_features},)"
                )
            rows.append(vec)
            model._scale[name] = float(packed["scale"])
            model._bias[name] = float(packed["bias"])
        if rows:
            model._v = np.stack(rows)
        return model


class RollingDistribution:
    """Symptom×root-cause counts in event-time day buckets.

    Buckets are never evicted (memory is bounded by the stream's *time
    span*, not its volume) and the window is applied at query time — so
    the answer depends only on which events were applied, never on the
    order they arrived in.
    """

    def __init__(self, *, window_days: int = 30) -> None:
        if window_days < 1:
            raise StreamError(f"window_days must be >= 1, got {window_days}")
        self.window_days = window_days
        #: day ordinal -> "symptom|root_cause" -> count of unique events.
        self.buckets: dict[int, dict[str, int]] = {}

    def observe(self, at: str, symptom: str, root_cause: str) -> None:
        day = date.fromisoformat(at[:10]).toordinal()
        key = f"{symptom}|{root_cause}"
        bucket = self.buckets.setdefault(day, {})
        bucket[key] = bucket.get(key, 0) + 1

    def window(self) -> dict[str, int]:
        """Merged counts over the trailing window ending at the latest
        observed bucket."""
        if not self.buckets:
            return {}
        end = max(self.buckets)
        start = end - self.window_days + 1
        merged: dict[str, int] = {}
        for day, bucket in self.buckets.items():
            if start <= day <= end:
                for key, count in bucket.items():
                    merged[key] = merged.get(key, 0) + count
        return dict(sorted(merged.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_days": self.window_days,
            "buckets": {
                str(day): dict(sorted(self.buckets[day].items()))
                for day in sorted(self.buckets)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RollingDistribution":
        dist = cls(window_days=int(data["window_days"]))
        for day, bucket in data["buckets"].items():
            dist.buckets[int(day)] = {
                str(k): int(v) for k, v in bucket.items()
            }
        return dist
