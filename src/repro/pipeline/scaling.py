"""The NLP scaling pipeline: corpus -> TF-IDF -> NMF -> per-dimension SVM.

This is the paper's §IV hot path (TF-IDF → NMF → SVM/Tree/AdaBoost) run
end-to-end the way tracker-mining studies actually run it: repeatedly,
with varied parameters.  Two levers make repeats fast by default:

* a :class:`~repro.parallel.WorkPool` fans out every independent unit
  (TF-IDF row shards, NMF restarts, per-class SVM problems) under the
  deterministic-ordering contract, and
* an :class:`~repro.parallel.ArtifactCache` keyed on corpus seed +
  vectorizer/model hyperparameters skips stages whose configuration has
  not changed.

Worker count and cache state are *performance* knobs only: every stage is
bit-for-bit identical for jobs=1, jobs=N, and warm-cache runs (enforced
by ``tests/test_parallel_equivalence.py``).  Worker counts therefore never
appear in cache keys.

A third lever makes long runs *durable*: pass ``run_id=`` to journal every
stage through a :class:`~repro.recovery.journal.RunJournal` (begin/commit
WAL over the cache's atomic checkpoints), and ``resume=`` to restart a
killed run — committed stages are skipped after digest verification,
execution restarts at the first uncommitted stage, and the result is
bit-for-bit identical to an uninterrupted run (``tests/test_crash_resume.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.parallel import ArtifactCache, WorkPool, canonicalize
from repro.pipeline.autoclassifier import AutoClassifier, ClassifierKind
from repro.pipeline.validation import ValidationReport, validate_pipeline
from repro.recovery.checkpoint import checkpointed_run, digest_config
from repro.recovery.journal import JournalEvent

#: Hyperparameters of the pipeline's TF-IDF stage, part of its cache key.
_TFIDF_PARAMS = {"min_count": 2, "sublinear_tf": False, "normalize": True}


@dataclass
class StageTiming:
    """Wall-clock and cache outcome for one pipeline stage.

    The first ``validate:*`` stage that computes also trains the later ones
    the cache does not hold, so its seconds include their training.
    """

    stage: str
    seconds: float
    cache_hit: bool = False


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, plus how long each stage took."""

    seed: int
    jobs: int
    stages: list[StageTiming] = field(default_factory=list)
    reports: dict[str, ValidationReport] = field(default_factory=dict)
    topics: list[list[str]] = field(default_factory=list)
    topic_errors: dict[int, float] = field(default_factory=dict)
    n_documents: int = 0
    n_features: int = 0
    #: Journal identity of this run (``None`` for unjournaled runs).
    run_id: str | None = None
    #: True when this result came from ``resume=``.
    resumed: bool = False
    #: Stages satisfied straight from journal-committed checkpoints.
    skipped_stages: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def accuracies(self) -> dict[str, float]:
        """Per-dimension accuracy — the equivalence-test comparison unit."""
        return {dim: report.accuracy for dim, report in self.reports.items()}

    def stage(self, name: str) -> StageTiming:
        for timing in self.stages:
            if timing.stage == name:
                return timing
        raise KeyError(name)


def result_metrics(result: PipelineResult, registry=None):
    """Project a finished :class:`PipelineResult` onto a registry.

    Stage outcomes become ``pipeline_stages_total{outcome}`` (computed vs
    cache-hit vs journal-skip) and corpus dimensions become gauges.  Stage
    wall times stay out: the export must be byte-identical for the same
    seed.  Returns the registry.
    """
    from repro.observability.metrics import MetricsRegistry

    registry = registry if registry is not None else MetricsRegistry()
    outcomes = registry.counter(
        "pipeline_stages_total",
        "Pipeline stages by execution outcome",
        labels=["outcome"],
    )
    skipped = set(result.skipped_stages)
    for timing in result.stages:
        if timing.stage in skipped:
            outcome = "journal_skip"
        elif timing.cache_hit:
            outcome = "cache_hit"
        else:
            outcome = "computed"
        outcomes.labels(outcome=outcome).inc()
    registry.gauge(
        "pipeline_documents", "Documents vectorized"
    ).set(result.n_documents)
    registry.gauge(
        "pipeline_features", "TF-IDF vocabulary size"
    ).set(result.n_features)
    return registry


class _Timer:
    def __init__(self, result: PipelineResult, stage: str) -> None:
        self.result = result
        self.stage = stage
        self.cache_hit = False

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.result.stages.append(
            StageTiming(
                stage=self.stage,
                seconds=time.perf_counter() - self.start,
                cache_hit=self.cache_hit,
            )
        )


def pipeline_config_digest(
    *,
    seed: int,
    dimensions: Sequence[str],
    kind: ClassifierKind,
    n_topics: int,
    nmf_restarts: int,
    split_seed: int,
) -> str:
    """Digest of everything that determines a pipeline run's outputs.

    ``jobs`` and cache state are deliberately absent — they are performance
    knobs under the equivalence contract, so a run may legally resume with
    a different worker count.
    """
    config = canonicalize({
        "seed": seed,
        "dimensions": list(dimensions),
        "model": AutoClassifier(kind=kind).hyperparameters(),
        "n_topics": n_topics,
        "nmf_restarts": nmf_restarts,
        "split_seed": split_seed,
        "tfidf": _TFIDF_PARAMS,
    })
    return digest_config(config)


def run_pipeline(
    *,
    seed: int = 2020,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    dimensions: Sequence[str] = ("bug_type", "symptom", "fix"),
    kind: ClassifierKind = ClassifierKind.SVM,
    n_topics: int = 8,
    nmf_restarts: int = 4,
    split_seed: int = 0,
    run_id: str | None = None,
    resume: str | None = None,
    on_journal_event: Callable[[JournalEvent], None] | None = None,
    metrics=None,
) -> PipelineResult:
    """Run the full NLP scaling pipeline once.

    ``jobs`` sets the :class:`WorkPool` width for every stage; ``cache``
    (optional) skips stages whose full configuration is already stored.
    ``run_id`` journals every stage begin/commit so a killed run can be
    continued with ``resume=run_id``: committed stages are verified against
    the journal's digests and skipped, the rest re-execute.  ``metrics``
    (an observability ``MetricsRegistry``) receives the stage-outcome
    projection from :func:`result_metrics` when the run finishes.
    """
    from repro.corpus import CorpusGenerator
    from repro.ml.nmf import nmf_multi_restart
    from repro.textmining import TfidfVectorizer, Tokenizer

    config_digest = pipeline_config_digest(
        seed=seed, dimensions=dimensions, kind=kind, n_topics=n_topics,
        nmf_restarts=nmf_restarts, split_seed=split_seed,
    )
    with checkpointed_run(
        cache, run_id, resume, config_digest=config_digest, on_event=on_journal_event
    ) as manager:
        pool = WorkPool(jobs)
        result = PipelineResult(
            seed=seed,
            jobs=jobs,
            run_id=None if manager is None else manager.journal.run_id,
            resumed=resume is not None,
        )

        def _stage(timer, name, namespace, params, compute):
            if manager is not None:
                value, outcome = manager.run_stage(name, namespace, params, compute)
                timer.cache_hit = outcome.hit
                return value
            if cache is not None:
                value, timer.cache_hit = cache.get_or_compute(
                    namespace, params, compute
                )
                return value
            return compute()

        corpus_params = {"seed": seed, "stage": "study-corpus"}
        with _Timer(result, "corpus") as timer:
            corpus = _stage(
                timer, "corpus", "corpus", corpus_params,
                CorpusGenerator(seed=seed).generate,
            )

        sample = corpus.manual_sample
        texts = sample.texts()

        tfidf_params = {"seed": seed, **_TFIDF_PARAMS}
        with _Timer(result, "tfidf") as timer:
            def _build_tfidf():
                token_docs = Tokenizer().tokenize_all(texts)
                vectorizer = TfidfVectorizer(min_count=_TFIDF_PARAMS["min_count"])
                matrix = vectorizer.fit_transform(token_docs, pool=pool)
                return matrix, vectorizer.feature_names

            matrix, feature_names = _stage(
                timer, "tfidf", "tfidf", tfidf_params, _build_tfidf
            )
        result.n_documents, result.n_features = matrix.shape

        nmf_params = {
            "seed": seed,
            "n_topics": n_topics,
            "restarts": nmf_restarts,
            "tfidf": _TFIDF_PARAMS,
        }
        with _Timer(result, "nmf") as timer:
            def _build_topics():
                restart = nmf_multi_restart(
                    matrix, n_topics, restarts=nmf_restarts, pool=pool
                )
                return restart.model.top_terms(feature_names, 8), restart.errors

            topics, errors = _stage(timer, "nmf", "nmf", nmf_params, _build_topics)
        result.topics = topics
        result.topic_errors = errors

        # validate_pipeline trains AutoClassifier(kind=kind) with defaults.
        model_params = AutoClassifier(kind=kind).hyperparameters()
        namespace = f"validation-{kind.value}"
        stage_params = {
            dimension: {
                "seed": seed,
                "split_seed": split_seed,
                "dimension": dimension,
                "model": model_params,
            }
            for dimension in dimensions
        }
        # The first validate stage that computes also computes every later
        # stage the cache does not hold, so their Word2Vec models train in
        # lockstep; each later stage still begins, puts and commits its own
        # report, which waits here until then.
        ahead: dict[str, ValidationReport] = {}

        def _validate(index: int) -> ValidationReport:
            dimension = dimensions[index]
            if dimension not in ahead:
                batch = [dimension, *(
                    later for later in dimensions[index + 1:]
                    if cache is None
                    or not cache.path_for(namespace, stage_params[later]).exists()
                )]
                reports = validate_pipeline(
                    sample, batch, kind=kind, seed=split_seed, n_jobs=jobs
                )
                ahead.update(zip(batch, reports))
            return ahead.pop(dimension)

        for index, dimension in enumerate(dimensions):
            with _Timer(result, f"validate:{dimension}") as timer:
                report = _stage(
                    timer, f"validate:{dimension}", namespace,
                    stage_params[dimension], partial(_validate, index),
                )
            result.reports[dimension] = report

    if manager is not None:
        result.skipped_stages = manager.skipped_stages()
    if metrics is not None:
        result_metrics(result, metrics)
    return result
