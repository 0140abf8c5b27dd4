"""AdaBoost (SAMME) over decision stumps."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.ml.preprocessing import LabelEncoder

#: Candidate thresholds a stump tries per feature, evenly spaced.
_MAX_THRESHOLDS = 64


class DecisionStump:
    """Depth-1 weighted classifier: threshold on a single feature.

    Each side of the threshold predicts the class with the largest total
    sample weight on that side, which generalizes the classic binary stump
    to the multi-class SAMME setting.
    """

    def __init__(self) -> None:
        self.feature_: int | None = None
        self.threshold_ = 0.0
        self.left_class_ = 0
        self.right_class_ = 0

    def fit(
        self, X: np.ndarray, y_idx: np.ndarray, weights: np.ndarray, n_classes: int
    ) -> "DecisionStump":
        best_error = np.inf
        total = weights.sum()
        for feature in range(X.shape[1]):
            column = X[:, feature]
            distinct = np.unique(column)
            if len(distinct) < 2:
                continue
            thresholds = (distinct[:-1] + distinct[1:]) / 2.0
            if len(thresholds) > _MAX_THRESHOLDS:
                picks = np.linspace(0, len(thresholds) - 1, _MAX_THRESHOLDS)
                thresholds = thresholds[picks.astype(int)]
            for threshold in thresholds:
                mask = column <= threshold
                left_w = np.bincount(y_idx[mask], weights=weights[mask], minlength=n_classes)
                right_w = np.bincount(
                    y_idx[~mask], weights=weights[~mask], minlength=n_classes
                )
                left_cls = int(np.argmax(left_w))
                right_cls = int(np.argmax(right_w))
                error = total - left_w[left_cls] - right_w[right_cls]
                if error < best_error - 1e-15:
                    best_error = error
                    self.feature_ = feature
                    self.threshold_ = float(threshold)
                    self.left_class_ = left_cls
                    self.right_class_ = right_cls
        if self.feature_ is None:
            # Degenerate data: constant features.  Predict the heaviest class.
            counts = np.bincount(y_idx, weights=weights, minlength=n_classes)
            self.feature_ = 0
            self.threshold_ = np.inf
            self.left_class_ = int(np.argmax(counts))
            self.right_class_ = self.left_class_
        return self

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        if self.feature_ is None:
            raise NotFittedError("DecisionStump.predict called before fit")
        mask = X[:, self.feature_] <= self.threshold_
        return np.where(mask, self.left_class_, self.right_class_)


class AdaBoostClassifier:
    """Multi-class AdaBoost with the SAMME weight update.

    Stops early when a stump achieves error <= (1 - 1/K) no better than
    chance or fits the weighted data perfectly.
    """

    def __init__(self, *, n_estimators: int = 50, learning_rate: float = 1.0) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.estimators_: list[DecisionStump] = []
        self.alphas_: list[float] = []
        self._encoder: LabelEncoder | None = None

    @property
    def classes_(self) -> list:
        if self._encoder is None:
            raise NotFittedError("AdaBoostClassifier has not been fitted")
        return self._encoder.classes_

    def fit(self, X: np.ndarray, y: Sequence) -> "AdaBoostClassifier":
        X = np.asarray(X, dtype=np.float64)
        encoder = LabelEncoder().fit(y)
        y_idx = encoder.transform(y)
        n_classes = len(encoder.classes_)
        n = len(y_idx)
        weights = np.full(n, 1.0 / n)
        self.estimators_ = []
        self.alphas_ = []
        self._encoder = encoder
        for _ in range(self.n_estimators):
            stump = DecisionStump().fit(X, y_idx, weights, n_classes)
            pred = stump.predict_idx(X)
            wrong = pred != y_idx
            error = float(weights[wrong].sum() / weights.sum())
            if error <= 1e-12:
                # Perfect stump dominates the ensemble.
                self.estimators_ = [stump]
                self.alphas_ = [1.0]
                break
            if error >= 1.0 - 1.0 / n_classes:
                break  # no better than chance; stop boosting
            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(n_classes - 1.0)
            )
            weights *= np.exp(alpha * wrong)
            weights /= weights.sum()
            self.estimators_.append(stump)
            self.alphas_.append(float(alpha))
        if not self.estimators_:
            # Fall back to the single stump even if it is weak.
            stump = DecisionStump().fit(X, y_idx, weights, n_classes)
            self.estimators_ = [stump]
            self.alphas_ = [1.0]
        return self

    def predict(self, X: np.ndarray) -> list:
        """Weighted-vote predictions over the stump ensemble."""
        if self._encoder is None:
            raise NotFittedError("AdaBoostClassifier.predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        n_classes = len(self._encoder.classes_)
        votes = np.zeros((X.shape[0], n_classes))
        for stump, alpha in zip(self.estimators_, self.alphas_):
            pred = stump.predict_idx(X)
            votes[np.arange(X.shape[0]), pred] += alpha
        return self._encoder.inverse_transform(np.argmax(votes, axis=1))
