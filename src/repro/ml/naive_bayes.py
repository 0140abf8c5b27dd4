"""Gaussian naive Bayes for dense real-valued features."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.ml.preprocessing import LabelEncoder


class GaussianNB:
    """Gaussian naive Bayes for dense real-valued features (e.g. embeddings)."""

    def __init__(self, *, var_smoothing: float = 1e-9) -> None:
        self.var_smoothing = var_smoothing
        self._encoder: LabelEncoder | None = None
        self.theta_: np.ndarray | None = None  # class means
        self.var_: np.ndarray | None = None  # class variances
        self.class_log_prior_: np.ndarray | None = None

    @property
    def classes_(self) -> list:
        if self._encoder is None:
            raise NotFittedError("GaussianNB has not been fitted")
        return self._encoder.classes_

    def fit(self, X: np.ndarray, y: Sequence) -> "GaussianNB":
        X = np.asarray(X, dtype=np.float64)
        encoder = LabelEncoder().fit(y)
        y_idx = encoder.transform(y)
        n_classes = len(encoder.classes_)
        theta = np.zeros((n_classes, X.shape[1]))
        var = np.zeros((n_classes, X.shape[1]))
        counts = np.zeros(n_classes)
        for cls in range(n_classes):
            rows = X[y_idx == cls]
            counts[cls] = len(rows)
            theta[cls] = rows.mean(axis=0)
            var[cls] = rows.var(axis=0)
        var += self.var_smoothing * max(X.var(), 1e-12)
        self.theta_ = theta
        self.var_ = var
        self.class_log_prior_ = np.log(counts / counts.sum())
        self._encoder = encoder
        return self

    def predict(self, X: np.ndarray) -> list:
        if self.theta_ is None or self.var_ is None or self.class_log_prior_ is None:
            raise NotFittedError("GaussianNB.predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        n_classes = self.theta_.shape[0]
        joint = np.zeros((X.shape[0], n_classes))
        for cls in range(n_classes):
            log_likelihood = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[cls])
                + (X - self.theta_[cls]) ** 2 / self.var_[cls],
                axis=1,
            )
            joint[:, cls] = self.class_log_prior_[cls] + log_likelihood
        assert self._encoder is not None
        return self._encoder.inverse_transform(np.argmax(joint, axis=1))
