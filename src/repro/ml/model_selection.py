"""Dataset splitting.

The paper validates the autoclassifier with a 2/3 train, 1/3 test split
(SS II-C2); :func:`train_test_split` defaults to that ratio.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def train_test_split(
    X: np.ndarray,
    y: Sequence,
    *,
    train_fraction: float = 2.0 / 3.0,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Shuffle and split into ``(X_train, X_test, y_train, y_test)``.

    With ``stratify=True`` (the default) each class keeps approximately the
    same share in both splits — important here because several taxonomy
    classes are rare (e.g. performance bugs, 4%).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    X = np.asarray(X)
    y = list(y)
    if len(X) != len(y):
        raise ValueError("X and y have different lengths")
    rng = np.random.default_rng(seed)
    if stratify:
        train_idx: list[int] = []
        test_idx: list[int] = []
        by_class: dict[object, list[int]] = {}
        for i, label in enumerate(y):
            by_class.setdefault(label, []).append(i)
        for indices in by_class.values():
            indices = list(indices)
            rng.shuffle(indices)
            cut = max(1, int(round(len(indices) * train_fraction)))
            if cut >= len(indices) and len(indices) > 1:
                cut = len(indices) - 1
            train_idx.extend(indices[:cut])
            test_idx.extend(indices[cut:])
        rng.shuffle(train_idx)
        rng.shuffle(test_idx)
    else:
        order = rng.permutation(len(y))
        cut = int(round(len(y) * train_fraction))
        train_idx = list(order[:cut])
        test_idx = list(order[cut:])
    X_train = X[train_idx]
    X_test = X[test_idx]
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]
    return X_train, X_test, y_train, y_test
