"""Label encoding."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError


class LabelEncoder:
    """Map arbitrary hashable labels to contiguous integers 0..K-1."""

    def __init__(self) -> None:
        self.classes_: list = []
        self._index: dict = {}

    def fit(self, labels: Sequence) -> "LabelEncoder":
        self.classes_ = sorted(set(labels), key=repr)
        self._index = {c: i for i, c in enumerate(self.classes_)}
        return self

    def transform(self, labels: Sequence) -> np.ndarray:
        if not self._index:
            raise NotFittedError("LabelEncoder.transform called before fit")
        try:
            return np.array([self._index[lbl] for lbl in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unseen label: {exc}") from exc

    def fit_transform(self, labels: Sequence) -> np.ndarray:
        return self.fit(labels).transform(labels)

    def inverse_transform(self, indices: Sequence[int]) -> list:
        if not self._index:
            raise NotFittedError("LabelEncoder.inverse_transform called before fit")
        return [self.classes_[int(i)] for i in indices]
