"""NLP autoclassification pipeline (SS II-C): end-to-end behaviour.

The full paper-scale validation (all dimensions, all classifiers) lives in
``benchmarks/bench_nlp_validation.py``; here we exercise the mechanics on
the manual sample with the default (fast) configuration.
"""

from __future__ import annotations

import pytest

from repro.errors import NotFittedError
from repro.parallel import ArtifactCache
from repro.pipeline import (
    AutoClassifier,
    ClassifierKind,
    autoclassifier,
    scaling,
    validate_pipeline,
)
from repro.pipeline.validation import _weights_digest, validate_dimensions_resilient
from repro.recovery.checkpoint import RecoveryError
from repro.recovery.journal import replay_journal


@pytest.fixture(scope="module")
def texts_and_labels(manual_sample):
    return manual_sample.texts(), manual_sample.labels("symptom")


class TestAutoClassifier:
    def test_fit_predict_roundtrip(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0).fit(texts[:100], labels[:100])
        predictions = model.predict(texts[100:])
        assert len(predictions) == len(texts) - 100
        assert set(predictions) <= set(labels)

    def test_training_accuracy_high(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0).fit(texts, labels)
        predictions = model.predict(texts)
        accuracy = sum(1 for t, p in zip(labels, predictions) if t == p) / len(labels)
        assert accuracy > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            AutoClassifier().predict(["text"])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            AutoClassifier().fit(["a"], ["x", "y"])

    @pytest.mark.parametrize("use_embeddings", [True, False])
    def test_predict_of_no_texts(self, texts_and_labels, use_embeddings):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0, use_embeddings=use_embeddings)
        assert model.fit(texts[:60], labels[:60]).predict([]) == []

    def test_fit_together_equals_each_fit(self, texts_and_labels):
        texts, labels = texts_and_labels
        settings = [dict(seed=0), dict(seed=1, use_embeddings=False), dict(seed=2)]
        slices = [slice(0, 60), slice(40, 90), slice(90, 150)]
        together = [AutoClassifier(**kw) for kw in settings]
        autoclassifier.fit_together(
            together, [texts[s] for s in slices], [labels[s] for s in slices]
        )
        for model, kw, part in zip(together, settings, slices):
            alone = AutoClassifier(**kw).fit(texts[part], labels[part])
            assert _weights_digest(model) == _weights_digest(alone)
            assert model.predict(texts) == alone.predict(texts)

    def test_pca_variant_runs(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0, pca_dim=16, use_embeddings=False)
        model.fit(texts[:80], labels[:80])
        assert len(model.predict(texts[80:90])) == 10


class TestValidation:
    def test_bug_type_accuracy_matches_paper(self, manual_sample):
        report = validate_pipeline(manual_sample, "bug_type", seed=0)
        assert report.accuracy >= 0.90  # paper: 96%

    def test_symptom_accuracy_matches_paper(self, manual_sample):
        report = validate_pipeline(manual_sample, "symptom", seed=0)
        assert report.accuracy >= 0.80  # paper: 86%

    def test_fix_prediction_is_hard(self, manual_sample):
        """The paper could not find any algorithm that predicts fixes."""
        report = validate_pipeline(manual_sample, "fix", seed=0)
        assert report.accuracy < 0.65

    def test_report_summary_format(self, manual_sample):
        report = validate_pipeline(manual_sample, "bug_type", seed=0)
        assert "bug_type" in report.summary()
        assert "accuracy" in report.summary()

    def test_confusion_matrix_consistent(self, manual_sample):
        report = validate_pipeline(manual_sample, "symptom", seed=0)
        total = sum(sum(row) for row in report.confusion)
        assert total == report.n_test

    def test_validate_dimensions_keys(self, manual_sample):
        reports, _ = validate_dimensions_resilient(
            manual_sample, dimensions=("bug_type", "symptom")
        )
        assert set(reports) == {"bug_type", "symptom"}

    def test_decision_tree_kind_works(self, manual_sample):
        report = validate_pipeline(
            manual_sample, "bug_type", kind=ClassifierKind.DECISION_TREE, seed=0
        )
        assert report.accuracy >= 0.75


class TestLockstepValidation:
    """``run_pipeline`` trains the validate stages' embeddings together."""

    DIMENSIONS = ("bug_type", "symptom", "fix")

    @pytest.fixture(scope="class")
    def alone(self, manual_sample):
        return {dim: validate_pipeline(manual_sample, dim, seed=0) for dim in self.DIMENSIONS}

    @staticmethod
    def batches(monkeypatch) -> list:
        """Dimension lists ``run_pipeline`` validates, call by call."""
        calls = []

        def recording(dataset, dimensions, **kw):
            calls.append(list(dimensions))
            return validate_pipeline(dataset, dimensions, **kw)

        monkeypatch.setattr(scaling, "validate_pipeline", recording)
        return calls

    @staticmethod
    def assert_same_reports(result, alone):
        for dim, report in result.reports.items():
            assert report.accuracy == alone[dim].accuracy
            assert report.confusion == alone[dim].confusion
            assert report.weights_digest == alone[dim].weights_digest

    def test_cold_run_trains_every_dimension_at_once(self, tmp_path, monkeypatch, alone):
        batches = self.batches(monkeypatch)
        result = scaling.run_pipeline(cache=ArtifactCache(tmp_path), run_id="cold",
                                      nmf_restarts=1)
        assert batches == [list(self.DIMENSIONS)]
        self.assert_same_reports(result, alone)
        # Each stage still begins and commits on its own, in order.
        names = ["corpus", "tfidf", "nmf", *(f"validate:{dim}" for dim in self.DIMENSIONS)]
        assert [timing.stage for timing in result.stages] == names
        events = replay_journal(tmp_path / ".journal" / "cold.jsonl").events
        assert [(e.stage, e.event) for e in events] == [
            ("", "run-start"),
            *((name, event) for name in names for event in ("begin", "commit")),
            ("", "run-end"),
        ]

    def test_cached_stage_is_left_out_of_the_batch(self, tmp_path, monkeypatch, alone):
        cache = ArtifactCache(tmp_path)
        scaling.run_pipeline(cache=cache, dimensions=("symptom",), nmf_restarts=1)
        batches = self.batches(monkeypatch)
        trained = []
        train_together = autoclassifier.train_together

        def counting(models, corpora):
            trained.append(len(models))
            train_together(models, corpora)

        monkeypatch.setattr(autoclassifier, "train_together", counting)
        result = scaling.run_pipeline(cache=cache, nmf_restarts=1)
        assert batches == [["bug_type", "fix"]] and trained == [2]
        hits = {timing.stage: timing.cache_hit for timing in result.stages}
        assert hits == {"corpus": True, "tfidf": True, "nmf": True,
                        "validate:bug_type": False, "validate:symptom": True,
                        "validate:fix": False}
        self.assert_same_reports(result, alone)


class TestHyperparameterKeys:
    """Cache keys and run digests come from the classifier's own settings."""

    DIGEST_ARGS = dict(seed=2020, dimensions=("bug_type",), kind=ClassifierKind.SVM,
                       n_topics=8, nmf_restarts=1, split_seed=0)

    def test_fit_builds_its_parts_from_the_mapping(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier().fit(texts, labels)
        params = model.hyperparameters()
        parts = {"word2vec": model._word2vec, "classifier": model._classifier,
                 "tfidf": model._tfidf}
        for block, part in parts.items():
            assert {name: getattr(part, name) for name in params[block]} == params[block]

    def test_embedding_settings_are_in_the_mapping(self):
        base = AutoClassifier().hyperparameters()
        assert base["word2vec"]["vector_size"] == AutoClassifier.embedding_dim
        assert base["word2vec"]["epochs"] == AutoClassifier.word2vec_epochs
        assert AutoClassifier(use_embeddings=False).hyperparameters()["word2vec"] is None
        assert AutoClassifier(n_jobs=4).hyperparameters() == base

    @pytest.mark.parametrize("name, value", [("window", 5), ("negative", 3), ("min_count", 1)])
    def test_changed_embedding_default_changes_the_run_digest(self, monkeypatch, name, value):
        before = scaling.pipeline_config_digest(**self.DIGEST_ARGS)
        monkeypatch.setitem(autoclassifier._WORD2VEC_PARAMS, name, value)
        assert scaling.pipeline_config_digest(**self.DIGEST_ARGS) != before

    def test_changed_default_is_neither_resumed_nor_served_from_cache(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        run = dict(cache=cache, dimensions=("bug_type",), nmf_restarts=1)
        first = scaling.run_pipeline(run_id="study", **run)
        monkeypatch.setitem(autoclassifier._WORD2VEC_PARAMS, "negative", 3)
        with pytest.raises(RecoveryError):
            scaling.run_pipeline(resume="study", **run)
        second = scaling.run_pipeline(**run)
        hits = {timing.stage: timing.cache_hit for timing in second.stages}
        assert hits == {"corpus": True, "tfidf": True, "nmf": True,
                        "validate:bug_type": False}
        assert (second.reports["bug_type"].weights_digest
                != first.reports["bug_type"].weights_digest)
