"""Validation protocol for the autoclassifier (SS II-C2).

The paper splits the manually labeled set 2/3 train / 1/3 test and reports
per-dimension accuracies (SVM best: bug type 96%, symptom 86%; fixes were
not predictable).  :func:`validate_pipeline` reproduces exactly that
protocol against ground-truth labels, one dimension or several at once.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.corpus.dataset import BugDataset
from repro.ml.metrics import accuracy_score, confusion_matrix, precision_recall_f1
from repro.ml.model_selection import train_test_split
from repro.pipeline.autoclassifier import AutoClassifier, ClassifierKind, fit_together


@dataclass
class ValidationReport:
    """Accuracy and per-class metrics for one dimension x classifier."""

    dimension: str
    classifier: ClassifierKind
    accuracy: float
    per_class: Mapping[str, Mapping[str, float]]
    n_train: int
    n_test: int
    confusion: list[list[int]] = field(default_factory=list)
    confusion_labels: list[str] = field(default_factory=list)
    #: sha256 over the trained classifier's parameters — lets equivalence
    #: and crash-recovery harnesses compare *weights* bit for bit without
    #: shipping the arrays around.
    weights_digest: str = ""

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.dimension:12s} {self.classifier.value:14s} "
            f"accuracy={self.accuracy:6.1%}  (train={self.n_train}, test={self.n_test})"
        )


def _weights_digest(model) -> str:
    """sha256 of the trained classifier's parameters.

    Prefers raw weight/bias bytes (LinearSVM); any other classifier kind
    digests its pickled trained state instead.
    """
    classifier = getattr(model, "_classifier", model)
    digest = hashlib.sha256()
    weights = getattr(classifier, "weights_", None)
    bias = getattr(classifier, "bias_", None)
    if weights is not None:
        digest.update(np.ascontiguousarray(weights).tobytes())
        if bias is not None:
            digest.update(np.ascontiguousarray(bias).tobytes())
    else:
        try:
            digest.update(
                pickle.dumps(classifier, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (pickle.PicklingError, AttributeError, TypeError):
            return ""  # unknown rather than unstable
    return digest.hexdigest()


def validate_pipeline(
    dataset: BugDataset,
    dimensions: str | Sequence[str],
    *,
    kind: ClassifierKind = ClassifierKind.SVM,
    seed: int = 0,
    n_jobs: int = 1,
) -> ValidationReport | list[ValidationReport]:
    """Train on 2/3 of ``dataset``, test on 1/3, report accuracy.

    ``dimensions`` is a taxonomy dimension name (``bug_type``, ``symptom``,
    ``trigger``, ``root_cause``, ``fix``), which returns its report, or a
    list of names, which returns one report per name, in order.  Each name
    has its own split and classifier, and a list's classifiers train their
    embeddings together (:func:`fit_together`), so every report equals the
    one its name alone returns.
    """
    if isinstance(dimensions, str):
        return validate_pipeline(dataset, [dimensions], kind=kind, seed=seed,
                                 n_jobs=n_jobs)[0]
    texts = dataset.texts()
    X = np.arange(len(texts)).reshape(-1, 1)  # split indices, not features
    splits = []
    for dimension in dimensions:
        X_train, X_test, y_train, y_test = train_test_split(
            X, dataset.labels(dimension), train_fraction=2.0 / 3.0, seed=seed,
            stratify=True,
        )
        train_texts = [texts[int(i)] for i in X_train[:, 0]]
        test_texts = [texts[int(i)] for i in X_test[:, 0]]
        splits.append((train_texts, test_texts, y_train, y_test))

    models = [AutoClassifier(kind=kind, seed=seed, n_jobs=n_jobs) for _ in dimensions]
    fit_together(models, [split[0] for split in splits], [split[2] for split in splits])

    reports = []
    for dimension, model, (train_texts, test_texts, _, y_test) in zip(
        dimensions, models, splits
    ):
        predictions = model.predict(test_texts)
        matrix, matrix_labels = confusion_matrix(y_test, predictions)
        reports.append(ValidationReport(
            dimension=dimension,
            classifier=kind,
            accuracy=accuracy_score(y_test, predictions),
            per_class=precision_recall_f1(y_test, predictions),
            n_train=len(train_texts),
            n_test=len(test_texts),
            confusion=matrix.tolist(),
            confusion_labels=[str(label) for label in matrix_labels],
            weights_digest=_weights_digest(model),
        ))
    return reports


def validate_dimensions_resilient(
    dataset: BugDataset,
    *,
    dimensions: Sequence[str] = ("bug_type", "symptom", "trigger", "root_cause", "fix"),
    seed: int = 0,
) -> tuple[dict[str, "ValidationReport"], "ExecutionReport"]:
    """:func:`validate_pipeline` across the standard dimensions, each behind
    a per-dimension fault boundary.

    A dimension that cannot be validated (degenerate label distribution,
    bad ground truth, a classifier blow-up) no longer aborts the whole run:
    it lands in the :class:`~repro.resilience.executor.ExecutionReport`'s
    failure ledger and the remaining dimensions still produce reports, with
    ``degraded=True`` flagging the partial result.
    """
    from repro.resilience.executor import ExecutionReport, map_isolated

    execution = map_isolated(
        lambda dim: validate_pipeline(dataset, dim, seed=seed), dimensions
    )
    reports = {
        dimensions[index]: report for index, report in execution.results.items()
    }
    return reports, execution
