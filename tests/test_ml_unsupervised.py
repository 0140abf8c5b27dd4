"""PCA, NMF, label encoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.nmf import NMF
from repro.ml.pca import PCA
from repro.ml.preprocessing import LabelEncoder


class TestPCA:
    def test_components_are_orthonormal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 6))
        pca = PCA(n_components=4).fit(X)
        gram = pca.components_ @ pca.components_.T
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_variance_ratio_sorted_and_bounded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5)) * np.array([5, 3, 1, 0.5, 0.1])
        pca = PCA(n_components=5).fit(X)
        ratios = pca.explained_variance_ratio_
        assert np.all(np.diff(ratios) <= 1e-12)
        assert 0.99 <= ratios.sum() <= 1.0 + 1e-9

    def test_first_component_captures_dominant_axis(self):
        rng = np.random.default_rng(2)
        X = np.zeros((100, 3))
        X[:, 0] = rng.normal(scale=10.0, size=100)
        X[:, 1] = rng.normal(scale=0.1, size=100)
        pca = PCA(n_components=1).fit(X)
        assert abs(pca.components_[0, 0]) > 0.99

    def test_roundtrip_on_low_rank_data(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(2, 5))
        X = rng.normal(size=(30, 2)) @ basis
        pca = PCA(n_components=2).fit(X)
        reconstructed = pca.inverse_transform(pca.transform(X))
        assert np.allclose(reconstructed, X, atol=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 4))
        a = PCA(n_components=2).fit(X).components_
        b = PCA(n_components=2).fit(X.copy()).components_
        assert np.allclose(a, b)

    def test_caps_components_at_rank(self):
        X = np.random.default_rng(5).normal(size=(3, 10))
        pca = PCA(n_components=8).fit(X)
        assert pca.components_.shape[0] == 3

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.zeros((2, 2)))


class TestNMF:
    def test_factors_nonnegative(self):
        rng = np.random.default_rng(0)
        V = rng.uniform(0, 1, size=(20, 12))
        nmf = NMF(n_components=4, seed=0)
        W = nmf.fit_transform(V)
        assert (W >= 0).all()
        assert (nmf.components_ >= 0).all()

    def test_reconstruction_improves_over_random(self):
        rng = np.random.default_rng(1)
        W_true = rng.uniform(0, 1, size=(30, 3))
        H_true = rng.uniform(0, 1, size=(3, 10))
        V = W_true @ H_true
        nmf = NMF(n_components=3, seed=0)
        nmf.fit(V)
        baseline = np.linalg.norm(V - V.mean())
        assert nmf.reconstruction_err_ < 0.25 * baseline

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError, match="non-negative"):
            NMF(2).fit(np.array([[1.0, -1.0]]))

    def test_top_terms_identifies_topic_words(self):
        # Two obvious topics: docs 0-4 use terms 0-2, docs 5-9 use terms 3-5.
        V = np.zeros((10, 6))
        V[:5, :3] = 1.0
        V[5:, 3:] = 1.0
        nmf = NMF(n_components=2, seed=1).fit(V)
        names = [f"t{i}" for i in range(6)]
        topics = nmf.top_terms(names, n_terms=3)
        groups = {frozenset(t) for t in topics}
        assert frozenset({"t0", "t1", "t2"}) in groups
        assert frozenset({"t3", "t4", "t5"}) in groups

    def test_transform_with_fixed_components(self):
        rng = np.random.default_rng(2)
        V = rng.uniform(0, 1, size=(12, 8))
        nmf = NMF(n_components=3, seed=0).fit(V)
        W = nmf.transform(V[:4])
        assert W.shape == (4, 3)
        assert (W >= 0).all()

    def test_deterministic_for_seed(self):
        V = np.random.default_rng(3).uniform(0, 1, size=(10, 6))
        a = NMF(n_components=2, seed=7).fit_transform(V)
        b = NMF(n_components=2, seed=7).fit_transform(V)
        assert np.allclose(a, b)


class TestPreprocessing:
    def test_label_encoder_roundtrip(self):
        encoder = LabelEncoder().fit(["b", "a", "b", "c"])
        indices = encoder.transform(["a", "b", "c"])
        assert encoder.inverse_transform(indices) == ["a", "b", "c"]

    def test_label_encoder_unseen_label(self):
        encoder = LabelEncoder().fit(["a"])
        with pytest.raises(ValueError, match="unseen"):
            encoder.transform(["z"])
