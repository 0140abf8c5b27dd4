"""LDA topic model and logistic regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.lda import LDA
from repro.ml.logistic import LogisticRegression


class TestLDA:
    def topic_corpus(self):
        # Two topics: terms 0-2 vs terms 3-5, 20 docs each.
        counts = np.zeros((40, 6), dtype=int)
        rng = np.random.default_rng(0)
        counts[:20, :3] = rng.integers(2, 6, size=(20, 3))
        counts[20:, 3:] = rng.integers(2, 6, size=(20, 3))
        return counts

    def test_recovers_planted_topics(self):
        counts = self.topic_corpus()
        lda = LDA(n_topics=2, n_iterations=60, seed=1).fit(counts)
        names = [f"t{i}" for i in range(6)]
        groups = {frozenset(t) for t in lda.top_terms(names, n_terms=3)}
        assert frozenset({"t0", "t1", "t2"}) in groups
        assert frozenset({"t3", "t4", "t5"}) in groups

    def test_doc_topic_rows_are_distributions(self):
        lda = LDA(n_topics=2, n_iterations=30, seed=0).fit(self.topic_corpus())
        assert np.allclose(lda.doc_topic_.sum(axis=1), 1.0)
        assert (lda.doc_topic_ >= 0).all()

    def test_topic_word_rows_are_distributions(self):
        lda = LDA(n_topics=2, n_iterations=30, seed=0).fit(self.topic_corpus())
        assert np.allclose(lda.topic_word_.sum(axis=1), 1.0)

    def test_deterministic_for_seed(self):
        counts = self.topic_corpus()
        a = LDA(n_topics=2, n_iterations=20, seed=5).fit(counts)
        b = LDA(n_topics=2, n_iterations=20, seed=5).fit(counts)
        assert np.allclose(a.topic_word_, b.topic_word_)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LDA(0)
        with pytest.raises(ValueError):
            LDA(2).fit(np.array([[-1, 2]]))
        with pytest.raises(ValueError):
            LDA(2).fit(np.zeros((3, 4), dtype=int))

    def test_top_terms_before_fit(self):
        with pytest.raises(NotFittedError):
            LDA(2).top_terms(["a"])


class TestLogisticRegression:
    def separable(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [rng.normal(loc=(-2, 0), size=(n, 2)), rng.normal(loc=(2, 0), size=(n, 2))]
        )
        y = ["neg"] * n + ["pos"] * n
        return X, y

    def test_separable_accuracy(self):
        X, y = self.separable()
        model = LogisticRegression().fit(X, y)
        predictions = model.predict(X)
        accuracy = sum(1 for t, p in zip(y, predictions) if t == p) / len(y)
        # Blobs at +/-2 with unit sigma have ~2.3% Bayes error.
        assert accuracy >= 0.94

    def test_probabilities_calibrated_direction(self):
        X, y = self.separable()
        model = LogisticRegression(positive_label="pos").fit(X, y)
        probs = model.predict_proba(np.array([[-4.0, 0.0], [4.0, 0.0]]))
        assert probs[0] < 0.1 < 0.9 < probs[1]

    def test_probabilities_bounded(self):
        X, y = self.separable()
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="exactly 2"):
            LogisticRegression().fit(np.zeros((3, 1)), ["a", "a", "a"])

    def test_unknown_positive_label(self):
        with pytest.raises(ValueError, match="positive_label"):
            LogisticRegression(positive_label="zz").fit(
                np.zeros((2, 1)), ["a", "b"]
            )

    def test_constant_feature_safe(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        model = LogisticRegression().fit(X, ["a", "a", "b", "b"])
        assert np.isfinite(model.predict_proba(X)).all()

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_predict_cuts_probabilities_at_one_half(self):
        X, y = self.separable()
        model = LogisticRegression(positive_label="pos").fit(X, y)
        expected = ["pos" if p >= 0.5 else "neg" for p in model.predict_proba(X)]
        assert model.predict(X) == expected
