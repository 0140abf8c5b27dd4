"""Classification metrics: accuracy, confusion matrix, precision/recall/F1."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def accuracy_score(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of exact matches between ``y_true`` and ``y_pred``."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred have different lengths")
    if not y_true:
        raise ValueError("empty label sequences")
    matches = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return matches / len(y_true)


def confusion_matrix(y_true: Sequence, y_pred: Sequence) -> tuple[np.ndarray, list]:
    """Return ``(matrix, labels)`` where ``matrix[i, j]`` counts samples with
    true label ``labels[i]`` predicted as ``labels[j]``; the labels are every
    label seen, sorted by ``repr``."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred have different lengths")
    labels = sorted(set(y_true) | set(y_pred), key=repr)
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        matrix[index[t], index[p]] += 1
    return matrix, labels


def precision_recall_f1(
    y_true: Sequence, y_pred: Sequence
) -> dict[object, dict[str, float]]:
    """Per-class precision, recall, F1, and support.

    Classes never predicted get precision 0; classes with no true samples get
    recall 0 — no NaNs escape.
    """
    matrix, labels = confusion_matrix(y_true, y_pred)
    result: dict[object, dict[str, float]] = {}
    for i, label in enumerate(labels):
        tp = float(matrix[i, i])
        predicted = float(matrix[:, i].sum())
        actual = float(matrix[i, :].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / actual if actual > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        result[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": actual,
        }
    return result
