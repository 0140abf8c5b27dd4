"""Binary logistic regression trained with full-batch gradient descent."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError

#: L2 penalty on the weights.
_REGULARIZATION = 1e-3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class LogisticRegression:
    """L2-regularized binary logistic regression.

    Labels may be any two hashable values; the positive class can be named
    explicitly (default: the lexicographically larger label).
    """

    def __init__(
        self,
        *,
        learning_rate: float = 0.1,
        n_iterations: int = 500,
        positive_label=None,
    ) -> None:
        if learning_rate <= 0 or n_iterations < 1:
            raise ValueError("learning_rate > 0 and n_iterations >= 1 required")
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.positive_label = positive_label
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.classes_: tuple | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: Sequence) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        labels = sorted(set(y), key=repr)
        if len(labels) != 2:
            raise ValueError(f"binary classifier needs exactly 2 classes, got {labels}")
        positive = self.positive_label if self.positive_label is not None else labels[1]
        if positive not in labels:
            raise ValueError(f"positive_label {positive!r} not among {labels}")
        negative = labels[0] if labels[1] == positive else labels[1]
        self.classes_ = (negative, positive)
        target = np.array([1.0 if label == positive else 0.0 for label in y])

        # Standardize internally for stable gradients.
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        Z = (X - self._mean) / self._scale

        n, d = Z.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.n_iterations):
            p = _sigmoid(Z @ w + b)
            gradient_w = Z.T @ (p - target) / n + _REGULARIZATION * w
            gradient_b = float(np.mean(p - target))
            w -= self.learning_rate * gradient_w
            b -= self.learning_rate * gradient_b
        self.weights_ = w
        self.bias_ = b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(positive class) per row."""
        if self.weights_ is None or self._mean is None or self._scale is None:
            raise NotFittedError("LogisticRegression.predict_proba before fit")
        Z = (np.asarray(X, dtype=np.float64) - self._mean) / self._scale
        return _sigmoid(Z @ self.weights_ + self.bias_)

    def predict(self, X: np.ndarray) -> list:
        if self.classes_ is None:
            raise NotFittedError("LogisticRegression.predict before fit")
        negative, positive = self.classes_
        return [
            positive if p >= 0.5 else negative for p in self.predict_proba(X)
        ]
