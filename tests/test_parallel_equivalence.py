"""Serial-equivalence harness: jobs=1 vs jobs=4 vs cache-warm, bit for bit.

The executor contract (DESIGN §"Parallel execution") promises that worker
count and cache state are performance knobs only.  Every test here runs the
same computation three ways and asserts *exact* equality — np.array_equal,
``==`` on floats — not approximate closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import CorpusGenerator
from repro.fuzzing import FuzzConfig
from repro.fuzzing.campaign import FuzzCampaign
from repro.ml.nmf import nmf_multi_restart
from repro.ml.svm import LinearSVM
from repro.parallel import ArtifactCache, WorkPool
from repro.pipeline import run_pipeline
from repro.textmining import TfidfVectorizer, Tokenizer

SEEDS = [0, 1, 2]


def _blobs(seed: int, n_per_class: int = 30, n_features: int = 6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(3, n_features))
    X = np.vstack(
        [center + rng.normal(size=(n_per_class, n_features)) for center in centers]
    )
    y = [cls for cls in ("crash", "churn", "leak") for _ in range(n_per_class)]
    return X, y


class TestSvmEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_jobs4_matches_serial_bit_for_bit(self, seed):
        X, y = _blobs(seed)
        serial = LinearSVM(seed=seed, n_jobs=1).fit(X, y)
        parallel = LinearSVM(seed=seed, n_jobs=4).fit(X, y)
        assert np.array_equal(serial.weights_, parallel.weights_)
        assert np.array_equal(serial.bias_, parallel.bias_)
        assert serial.predict(X) == parallel.predict(X)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_warm_matches_serial(self, seed, tmp_path):
        X, y = _blobs(seed)
        cache = ArtifactCache(tmp_path)
        params = {"seed": seed, "epochs": 40, "regularization": 1e-3}

        def _train():
            model = LinearSVM(seed=seed).fit(X, y)
            return model.weights_, model.bias_

        (w_cold, b_cold), hit = cache.get_or_compute("svm", params, _train)
        assert not hit
        (w_warm, b_warm), hit = cache.get_or_compute("svm", params, _train)
        assert hit
        reference = LinearSVM(seed=seed).fit(X, y)
        assert np.array_equal(w_cold, w_warm)
        assert np.array_equal(w_warm, reference.weights_)
        assert np.array_equal(b_warm, reference.bias_)


class TestNmfEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_restart_fan_out_matches_serial(self, seed):
        rng = np.random.default_rng(seed)
        V = np.abs(rng.normal(size=(40, 12)))
        serial = nmf_multi_restart(V, 4, restarts=4)
        parallel = nmf_multi_restart(V, 4, restarts=4, pool=WorkPool(4))
        assert serial.best_seed == parallel.best_seed
        assert serial.errors == parallel.errors
        assert np.array_equal(serial.W, parallel.W)
        assert np.array_equal(serial.model.components_, parallel.model.components_)


class TestTfidfEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_transform_matches_serial(self, seed):
        corpus = CorpusGenerator(seed=seed).generate()
        docs = Tokenizer().tokenize_all(corpus.manual_sample.texts()[:60])
        vectorizer = TfidfVectorizer(min_count=2)
        serial = vectorizer.fit_transform(docs)
        sharded = vectorizer.transform(docs, pool=WorkPool(4))
        assert np.array_equal(serial, sharded)


class TestPipelineEquivalence:
    """End-to-end: the full pipeline across jobs=1 / jobs=4 / cache-warm."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_way_equivalence(self, seed, tmp_path):
        common = dict(
            seed=seed, dimensions=("bug_type",), n_topics=4, nmf_restarts=2
        )
        serial = run_pipeline(jobs=1, **common)
        parallel = run_pipeline(jobs=4, **common)

        cache = ArtifactCache(tmp_path)
        cold = run_pipeline(jobs=4, cache=cache, **common)
        warm = run_pipeline(jobs=4, cache=cache, **common)

        runs = [parallel, cold, warm]
        for run in runs:
            assert run.accuracies() == serial.accuracies()
            assert run.topics == serial.topics
            assert run.topic_errors == serial.topic_errors
            assert (run.n_documents, run.n_features) == (
                serial.n_documents,
                serial.n_features,
            )
        for dim, report in serial.reports.items():
            for run in runs:
                other = run.reports[dim]
                assert other.accuracy == report.accuracy
                assert other.confusion == report.confusion

        assert not any(stage.cache_hit for stage in cold.stages)
        assert all(stage.cache_hit for stage in warm.stages)


class TestFuzzEquivalence:
    """A fuzz campaign's replays on the process backend: each task carries
    the frozen config, the topology and the schedule across the process
    boundary, and every output must equal the serial run's."""

    CONFIG = FuzzConfig(
        controllers=5, switches=12, budget=40, batch=10, seed=3, horizon=30.0
    )
    OUTPUTS = ("coverage.json", "reproducers.json", "metrics.jsonl", "journal.jsonl")

    def test_jobs2_matches_serial(self, tmp_path):
        runs = {}
        for jobs in (1, 2):
            campaign = FuzzCampaign(self.CONFIG, tmp_path / f"jobs{jobs}", jobs=jobs)
            report = campaign.run()
            assert campaign._pool.last_backend == ("serial" if jobs == 1 else "process")
            runs[jobs] = (
                report.state.fingerprint(),
                report.fingerprint,
                {name: (campaign.run_dir / name).read_bytes() for name in self.OUTPUTS},
            )
        assert runs[2] == runs[1]
