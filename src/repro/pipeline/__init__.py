"""End-to-end NLP autoclassification pipeline (SS II-C).

Feature extraction (TF-IDF + NMF keywords), Word2Vec document embedding,
and classical classifiers (SVM / DT / PCA+SVM / AdaBoost), with the paper's
2/3-1/3 validation protocol.
"""

from repro.pipeline.autoclassifier import AutoClassifier, ClassifierKind
from repro.pipeline.scaling import PipelineResult, StageTiming, run_pipeline
from repro.pipeline.validation import (
    ValidationReport,
    validate_dimensions_resilient,
    validate_pipeline,
)

__all__ = [
    "AutoClassifier",
    "ClassifierKind",
    "PipelineResult",
    "StageTiming",
    "ValidationReport",
    "run_pipeline",
    "validate_dimensions_resilient",
    "validate_pipeline",
]
