"""From-scratch classifiers: SVM, decision tree, AdaBoost, naive Bayes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import train_test_split
from repro.ml.naive_bayes import GaussianNB
from repro.ml.svm import LinearSVM, SparseRow, row_dot
from repro.ml.tree import DecisionTreeClassifier
from repro.pipeline import AutoClassifier


def blob_data(seed=0, n=60, separation=4.0):
    """Two well-separated Gaussian blobs with string labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-separation, 0), scale=1.0, size=(n, 2))
    b = rng.normal(loc=(separation, 0), scale=1.0, size=(n, 2))
    X = np.vstack([a, b])
    y = ["left"] * n + ["right"] * n
    return X, y


def three_class_data(seed=1, n=40):
    rng = np.random.default_rng(seed)
    centers = [(-6, 0), (6, 0), (0, 7)]
    X = np.vstack([rng.normal(loc=c, scale=1.0, size=(n, 2)) for c in centers])
    y = sum([[f"c{i}"] * n for i in range(3)], [])
    return X, y


class TestLinearSVM:
    def test_separable_blobs(self):
        X, y = blob_data()
        model = LinearSVM(seed=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) >= 0.98

    def test_three_classes(self):
        X, y = three_class_data()
        model = LinearSVM(seed=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) >= 0.95

    def test_deterministic_for_fixed_seed(self):
        X, y = blob_data()
        a = LinearSVM(seed=3).fit(X, y)
        b = LinearSVM(seed=3).fit(X, y)
        assert np.allclose(a.weights_, b.weights_)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearSVM().predict(np.zeros((1, 2)))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros((3, 2)), ["a", "b"])

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            LinearSVM().fit(np.zeros(3), ["a", "b", "c"])

    def test_class_balancing_recovers_minority(self):
        """With 10:1 imbalance, the balanced SVM must still find the minority."""
        rng = np.random.default_rng(5)
        majority = rng.normal(loc=(0, 0), scale=1.0, size=(100, 2))
        minority = rng.normal(loc=(6, 6), scale=0.5, size=(10, 2))
        X = np.vstack([majority, minority])
        y = ["maj"] * 100 + ["min"] * 10
        model = LinearSVM(seed=0, class_weight="balanced").fit(X, y)
        predictions = model.predict(minority)
        assert predictions.count("min") >= 8

    def test_decision_function_shape(self):
        X, y = three_class_data()
        model = LinearSVM(seed=0).fit(X, y)
        assert model.decision_function(X).shape == (len(y), 3)

    @given(seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_never_worse_than_chance_on_separable(self, seed):
        X, y = blob_data(seed=seed, n=30)
        model = LinearSVM(seed=0, epochs=15).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.5


def dense_decay_fit(X, y, *, seed, epochs=40, regularization=1e-3):
    """The one-vs-rest dense-decay Pegasos loop ``LinearSVM`` ran before it
    moved onto the shared ``pegasos_step``: the reference it is checked
    against.  Returns ``(classes, weights, biases)``."""
    classes = sorted(set(y), key=repr)
    n_samples, n_features = X.shape
    weights = np.zeros((len(classes), n_features))
    biases = np.zeros(len(classes))
    for cls, name in enumerate(classes):
        target = np.array([1.0 if label == name else -1.0 for label in y])
        n_pos = max(int((target > 0).sum()), 1)
        n_neg = max(n_samples - n_pos, 1)
        sample_weight = np.where(
            target > 0,
            min(n_samples / (2.0 * n_pos), 3.0),
            min(n_samples / (2.0 * n_neg), 3.0),
        )
        rng = np.random.default_rng((seed, cls))
        w = np.zeros(n_features)
        b = 0.0
        t = n_samples
        for _ in range(epochs):
            for i in rng.permutation(n_samples):
                t += 1
                eta = 1.0 / (regularization * t)
                margin = target[i] * (X[i] @ w + b)
                w *= 1.0 - eta * regularization
                if margin < 1.0:
                    step = eta * sample_weight[i] * target[i]
                    w += step * X[i]
                    b += step
        weights[cls] = w
        biases[cls] = b
    return classes, weights, biases


@pytest.fixture(scope="module")
def study_fits(manual_sample):
    """Per dimension, the seed-2020 validate fit's trained ``LinearSVM``,
    its exact training features and labels, and its test features."""
    texts = manual_sample.texts()
    index = np.arange(len(texts)).reshape(-1, 1)
    fits = {}
    with pytest.MonkeyPatch.context() as patch:
        seen = []
        fit = LinearSVM.fit

        def recording_fit(self, X, y, **kwargs):
            seen.append((np.array(X), list(y)))
            return fit(self, X, y, **kwargs)

        patch.setattr(LinearSVM, "fit", recording_fit)
        for dimension in ("bug_type", "symptom", "fix"):
            train, test, y_train, _ = train_test_split(
                index, manual_sample.labels(dimension), seed=0, stratify=True
            )
            model = AutoClassifier(seed=0).fit(
                [texts[i] for i in train[:, 0]], y_train
            )
            X_train, y_seen = seen.pop()
            fits[dimension] = (
                model._classifier,
                X_train,
                y_seen,
                model._featurize(
                    model.tokenizer.tokenize_all([texts[i] for i in test[:, 0]]),
                    fit=False,
                ),
            )
    return fits


class TestSharedPegasosStep:
    @pytest.mark.parametrize("dimension", ["bug_type", "symptom", "fix"])
    def test_study_fit_matches_dense_decay_oracle(self, study_fits, dimension):
        """Every hinge decision is the oracle's (biases byte-equal), weights
        differ only by the rounding of ``scale * v``, predictions match."""
        model, X_train, y_train, X_test = study_fits[dimension]
        classes, weights, biases = dense_decay_fit(X_train, y_train, seed=0)
        assert list(model.classes_) == classes
        assert model.bias_.tobytes() == biases.tobytes()
        assert np.abs(model.weights_ - weights).max() <= 1e-12
        expected = [classes[i] for i in np.argmax(X_test @ weights.T + biases, axis=1)]
        assert model.predict(X_test) == expected
        assert model.predict(X_train) == [
            classes[i] for i in np.argmax(X_train @ weights.T + biases, axis=1)
        ]

    def test_row_dot_sums_left_to_right(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(512)
        for n in range(41):
            cols = rng.choice(512, n, replace=False)
            row = SparseRow(cols, rng.standard_normal(n))
            sequential = 0.0
            for col, value in zip(cols, row.vals):
                sequential += v[col] * value
            assert row_dot(v, row) == sequential

    def test_all_zero_rows_match_the_oracle(self):
        X, y = three_class_data()
        X = np.vstack([X, np.zeros((2, 2))])
        y = y + ["c0", "c1"]
        model = LinearSVM(seed=0).fit(X, y)
        classes, weights, biases = dense_decay_fit(X, y, seed=0)
        assert model.bias_.tobytes() == biases.tobytes()
        assert np.abs(model.weights_ - weights).max() <= 1e-12


class TestDecisionTree:
    def test_fits_xor_with_depth(self):
        """XOR is not linearly separable; the tree must still nail it."""
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=float)
        y = [("t" if (a != b) else "f") for a, b in X]
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.predict(X) == y

    def test_max_depth_zero_is_majority_vote(self):
        X, y = blob_data()
        tree = DecisionTreeClassifier(max_depth=0).fit(X, y)
        assert tree.depth() == 0
        assert len(set(tree.predict(X))) == 1

    def test_depth_bounded(self):
        X, y = three_class_data()
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_pure_leaf_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(X, ["a", "a", "a"])
        assert tree.depth() == 0

    def test_min_samples_leaf_respected(self):
        X, y = blob_data(n=10)
        tree = DecisionTreeClassifier(min_samples_leaf=5).fit(X, y)
        # The only legal split is the 10/10 one; deeper splits would create
        # leaves under 5 samples near the boundary, but accuracy holds.
        assert accuracy_score(y, tree.predict(X)) >= 0.9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 1)))


class TestAdaBoost:
    def test_boosts_past_single_stump(self):
        """Diagonal boundary: one stump fails, an ensemble succeeds."""
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = ["pos" if x0 + x1 > 0 else "neg" for x0, x1 in X]
        boost = AdaBoostClassifier(n_estimators=40).fit(X, y)
        stump_only = AdaBoostClassifier(n_estimators=1).fit(X, y)
        assert accuracy_score(y, boost.predict(X)) > accuracy_score(
            y, stump_only.predict(X)
        )
        assert accuracy_score(y, boost.predict(X)) >= 0.9

    def test_three_class_samme(self):
        X, y = three_class_data()
        model = AdaBoostClassifier(n_estimators=30).fit(X, y)
        assert accuracy_score(y, model.predict(X)) >= 0.9

    def test_perfect_stump_short_circuits(self):
        # Few enough samples that every candidate threshold is evaluated,
        # so the gap between the blobs is guaranteed to be found.
        X, y = blob_data(n=20, separation=10.0)
        model = AdaBoostClassifier(n_estimators=50).fit(X, y)
        assert len(model.estimators_) == 1

    def test_constant_features_fall_back(self):
        X = np.ones((10, 2))
        y = ["a"] * 7 + ["b"] * 3
        model = AdaBoostClassifier(n_estimators=5).fit(X, y)
        assert model.predict(X) == ["a"] * 10

    def test_rejects_bad_estimator_count(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)


class TestNaiveBayes:
    def test_gaussian_blobs(self):
        X, y = blob_data()
        model = GaussianNB().fit(X, y)
        assert accuracy_score(y, model.predict(X)) >= 0.98

    def test_gaussian_prior_influences_ties(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = ["a"] * 27 + ["b"] * 3
        model = GaussianNB().fit(X, y)
        # On indistinguishable data the prior should dominate.
        predictions = model.predict(rng.normal(size=(20, 2)))
        assert predictions.count("a") > predictions.count("b")
