"""Metrics and model-selection utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import accuracy_score, confusion_matrix, precision_recall_f1
from repro.ml.model_selection import train_test_split


class TestMetrics:
    def test_accuracy_perfect_and_zero(self):
        assert accuracy_score(["a", "b"], ["a", "b"]) == 1.0
        assert accuracy_score(["a", "b"], ["b", "a"]) == 0.0

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score(["a"], ["a", "b"])

    def test_accuracy_empty(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_confusion_matrix_labels_are_every_label_seen(self):
        matrix, labels = confusion_matrix(["b", "b"], ["a", "c"])
        assert labels == ["a", "b", "c"]
        assert matrix.tolist() == [[0, 0, 0], [1, 0, 1], [0, 0, 0]]

    def test_confusion_matrix_layout(self):
        matrix, labels = confusion_matrix(["a", "a", "b"], ["a", "b", "b"])
        assert labels == ["a", "b"]
        assert matrix.tolist() == [[1, 1], [0, 1]]

    def test_precision_recall_f1_values(self):
        # 'a': tp=2, fp=1, fn=0 -> p=2/3, r=1; 'b': tp=1, fp=0, fn=1.
        result = precision_recall_f1(["a", "a", "b", "b"], ["a", "a", "a", "b"])
        assert result["a"]["precision"] == pytest.approx(2 / 3)
        assert result["a"]["recall"] == pytest.approx(1.0)
        assert result["b"]["recall"] == pytest.approx(0.5)

    def test_f1_never_nan_for_unpredicted_class(self):
        result = precision_recall_f1(["a", "b"], ["a", "a"])
        assert result["b"]["f1"] == 0.0

    def test_confusion_matrix_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(["a", "b"], ["a"])

    def test_support_counts_true_samples(self):
        result = precision_recall_f1(["a", "a", "a", "b"], ["b", "b", "a", "b"])
        assert result["a"]["support"] == 3.0
        assert result["b"]["support"] == 1.0

    def test_recall_zero_for_class_never_true(self):
        result = precision_recall_f1(["a", "a"], ["a", "c"])
        assert result["c"] == {
            "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0.0,
        }

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=40),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_f1_is_the_harmonic_mean(self, y_true, seed):
        rng = np.random.default_rng(seed)
        y_pred = [rng.choice(list("abc")) for _ in y_true]
        for scores in precision_recall_f1(y_true, y_pred).values():
            p, r = scores["precision"], scores["recall"]
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert scores["f1"] == pytest.approx(expected)
            assert 0.0 <= scores["f1"] <= 1.0

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=40),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_confusion_diagonal_equals_accuracy(self, y_true, seed):
        rng = np.random.default_rng(seed)
        y_pred = [rng.choice(list("abc")) for _ in y_true]
        matrix, _ = confusion_matrix(y_true, y_pred)
        assert matrix.trace() / len(y_true) == pytest.approx(
            accuracy_score(y_true, y_pred)
        )


class TestTrainTestSplit:
    def test_default_two_thirds(self):
        X = np.arange(90).reshape(-1, 1)
        y = ["a", "b", "c"] * 30
        X_train, X_test, y_train, y_test = train_test_split(X, y, seed=0)
        assert len(y_train) == 60 and len(y_test) == 30

    def test_stratification_preserves_shares(self):
        X = np.zeros((100, 1))
        y = ["rare"] * 10 + ["common"] * 90
        _, _, y_train, y_test = train_test_split(X, y, seed=1)
        assert y_train.count("rare") == pytest.approx(7, abs=1)
        assert y_test.count("rare") >= 2

    def test_every_class_appears_in_test(self):
        X = np.zeros((9, 1))
        y = ["a", "a", "a", "b", "b", "b", "c", "c", "c"]
        _, _, _, y_test = train_test_split(X, y, seed=2)
        assert set(y_test) == {"a", "b", "c"}

    def test_no_overlap_and_full_coverage(self):
        X = np.arange(30).reshape(-1, 1)
        y = ["a", "b"] * 15
        X_train, X_test, _, _ = train_test_split(X, y, seed=3)
        train_ids = set(X_train[:, 0].tolist())
        test_ids = set(X_test[:, 0].tolist())
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(range(30))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), ["a"] * 4, train_fraction=1.5)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_fraction_interval_is_open(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            train_test_split(np.zeros((4, 1)), ["a"] * 4, train_fraction=fraction)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different lengths"):
            train_test_split(np.zeros((4, 1)), ["a"] * 3)

    def test_same_seed_same_split(self):
        X = np.arange(40).reshape(-1, 1)
        y = ["a", "b", "c", "d"] * 10
        first = train_test_split(X, y, seed=4)
        second = train_test_split(X, y, seed=4)
        assert first[0].tolist() == second[0].tolist()
        assert first[3] == second[3]
        other = train_test_split(X, y, seed=5)
        assert other[0].tolist() != first[0].tolist()

    def test_unstratified_split_partitions_rows(self):
        X = np.arange(30).reshape(-1, 1)
        y = ["a"] * 25 + ["b"] * 5
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, seed=6, stratify=False
        )
        assert len(X_train) == 20 and len(X_test) == 10
        rows = sorted(X_train[:, 0].tolist() + X_test[:, 0].tolist())
        assert rows == list(range(30))
        # Labels travel with their rows.
        assert [y[i] for i in X_train[:, 0]] == y_train
        assert [y[i] for i in X_test[:, 0]] == y_test

    def test_singleton_class_stays_in_train(self):
        X = np.arange(7).reshape(-1, 1)
        y = ["a"] * 6 + ["lonely"]
        _, _, y_train, y_test = train_test_split(X, y, seed=7)
        assert "lonely" in y_train and "lonely" not in y_test
