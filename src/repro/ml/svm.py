"""Linear support vector machine trained with Pegasos-style SGD.

Multi-class is handled one-vs-rest; prediction takes the argmax of the
per-class decision values.  This is the classifier the paper found most
accurate for bug type (96%) and symptom (86%) prediction.  Its SGD update,
:func:`pegasos_step`, is also the one the stream's
:class:`~repro.stream.online.OnlineLinearSVM` takes on hashed rows.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.ml.preprocessing import LabelEncoder
from repro.parallel import WorkPool

#: Cap on a balanced class weight: an uncapped near-empty class (1-5
#: samples) produces a binary SVM whose scores dwarf every other class in
#: the argmax, flipping all predictions to the rarest label.
WEIGHT_CAP = 3.0
#: Rescale ``v`` into ``scale`` once the scalar decays this far, keeping
#: the representation well inside float64 range on unbounded streams.
_RESCALE_FLOOR = 1e-6


class SparseRow(NamedTuple):
    """A feature row as its non-zero columns and their values, in order."""

    cols: np.ndarray
    vals: np.ndarray


def row_dot(v: np.ndarray, row: SparseRow) -> float:
    """``v · row`` summed left to right.  A BLAS dot rounds differently per
    build and CPU; this sum makes every margin, and so every hinge decision
    behind a stream fingerprint, the same everywhere."""
    if not row.cols.size:
        return 0.0
    return float(np.add.accumulate(v[row.cols] * row.vals)[-1])


def balanced_weight(n_seen: int, n_pos: int, positive: bool) -> float:
    """Capped weight of one side of a one-vs-rest problem: the rarer side
    is up-weighted so the problem does not collapse onto the majority class
    (symptom classes are imbalanced: byzantine 61% vs performance 4%)."""
    n_seen, n_pos = max(n_seen, 1), max(n_pos, 1)
    n_side = n_pos if positive else max(n_seen - n_pos, 1)
    return min(n_seen / (2.0 * n_side), WEIGHT_CAP)


def pegasos_step(
    v: np.ndarray, scale: float, bias: float, row: SparseRow,
    y: float, eta: float, regularization: float, weight: float,
    dot: float | None = None,
) -> tuple[float, float]:
    """One Pegasos SGD step of a binary problem whose weights are ``scale * v``.

    The L2 decay multiplies the scalar and the hinge update touches only the
    row's columns, so a step costs O(nnz), not O(n_features).  Updates ``v``
    in place and returns the new ``(scale, bias)``.  ``dot`` is
    ``row_dot(v, row)`` when the caller has already summed it.
    """
    if dot is None:
        dot = row_dot(v, row)
    margin = y * (scale * dot + bias)
    scale *= 1.0 - eta * regularization
    if margin < 1.0:
        step = eta * weight * y
        v[row.cols] += step * row.vals / scale
        bias += step
    if scale < _RESCALE_FLOOR:
        v *= scale
        scale = 1.0
    return scale, bias


def _train_class_task(
    task: tuple[list[SparseRow], list[float], list[float], int, int, int, int, float],
) -> tuple[int, np.ndarray, float]:
    """Pegasos SGD for one binary one-vs-rest problem, as a
    :class:`~repro.parallel.WorkPool` task.

    Module-level so the process backend can pickle it; each class draws
    from its own ``(seed, class_index)`` stream, which is what makes the
    result independent of scheduling.
    """
    rows, y, sample_weight, seed, cls, n_features, epochs, regularization = task
    rng = np.random.default_rng((seed, cls))
    v = np.zeros(n_features)
    scale, bias = 1.0, 0.0
    # Start the step counter one "virtual epoch" in: eta = 1/(lam*t) is
    # enormous for small t, and those first few steps otherwise dominate
    # the final iterate enough to misclassify cleanly separable points.
    t = len(rows)
    for _ in range(epochs):
        for i in rng.permutation(len(rows)):
            t += 1
            scale, bias = pegasos_step(
                v, scale, bias, rows[i], y[i], 1.0 / (regularization * t),
                regularization, sample_weight[i],
            )
    return cls, scale * v, bias


class LinearSVM:
    """One-vs-rest linear SVM with hinge loss and L2 regularization.

    Parameters
    ----------
    regularization:
        The lambda of the Pegasos objective
        ``lambda/2 ||w||^2 + mean(hinge)``.  Smaller values fit harder.
    epochs:
        Full passes over the training data.
    seed:
        Shuffling seed; training is deterministic for a fixed seed.
        Each one-vs-rest problem shuffles with an independent
        ``(seed, class_index)`` stream, so per-class training order —
        serial or parallel — cannot change the fitted weights.
    n_jobs:
        Workers for per-class one-vs-rest training.  ``fit`` is bit-for-bit
        identical for every value of ``n_jobs``.
    """

    def __init__(
        self,
        *,
        regularization: float = 1e-3,
        epochs: int = 40,
        seed: int = 0,
        class_weight: str | None = "balanced",
        n_jobs: int = 1,
    ) -> None:
        if regularization <= 0:
            raise ValueError("regularization must be > 0")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.regularization = regularization
        self.epochs = epochs
        self.seed = seed
        self.class_weight = class_weight
        self.n_jobs = n_jobs
        self._encoder: LabelEncoder | None = None
        self.weights_: np.ndarray | None = None  # (n_classes, n_features)
        self.bias_: np.ndarray | None = None  # (n_classes,)

    @property
    def classes_(self) -> list:
        if self._encoder is None:
            raise NotFittedError("LinearSVM has not been fitted")
        return self._encoder.classes_

    def fit(self, X: np.ndarray, y: Sequence) -> "LinearSVM":
        """Train one binary SVM per class (optionally in parallel).

        Per-class problems are independent — each has its own RNG stream —
        so training them through a :class:`~repro.parallel.WorkPool` with
        any worker count produces exactly the serial weights.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        encoder = LabelEncoder().fit(y)
        y_idx = encoder.transform(y)
        n_classes = len(encoder.classes_)
        n_samples, n_features = X.shape
        if n_samples != len(y_idx):
            raise ValueError("X and y have different lengths")
        rows = [SparseRow(cols, x[cols]) for x, cols in zip(X, map(np.flatnonzero, X))]
        tasks = []
        for cls in range(n_classes):
            target = np.where(y_idx == cls, 1.0, -1.0).tolist()
            n_pos = target.count(1.0)
            sample_weight = [
                balanced_weight(n_samples, n_pos, side > 0) if self.class_weight else 1.0
                for side in target
            ]
            tasks.append((rows, target, sample_weight, self.seed, cls,
                          n_features, self.epochs, self.regularization))
        pool = WorkPool(self.n_jobs)
        weights = np.zeros((n_classes, n_features))
        biases = np.zeros(n_classes)
        for cls, w, b in pool.map(_train_class_task, tasks):
            weights[cls] = w
            biases[cls] = b
        self._encoder = encoder
        self.weights_ = weights
        self.bias_ = biases
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class raw scores, shape ``(n_samples, n_classes)``."""
        if self.weights_ is None or self.bias_ is None:
            raise NotFittedError("LinearSVM.decision_function called before fit")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.weights_.T + self.bias_

    def predict(self, X: np.ndarray) -> list:
        """Predicted class labels (original label objects)."""
        scores = self.decision_function(X)
        assert self._encoder is not None
        return self._encoder.inverse_transform(np.argmax(scores, axis=1))
