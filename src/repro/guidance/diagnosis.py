"""Diagnosis assistance (SS VII-B takeaway).

The paper anticipates "a decision tree ... to help restrict and narrow the
developer and operator efforts in diagnosis": given what an operator can
observe about a new bug (its description, its symptom), predict the likely
root cause and fix family.  This module trains per-dimension text
classifiers on the labeled corpus and surfaces the correlation rules (e.g.
third-party trigger => add-compatibility fix) as ranked suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.correlation import pairwise_correlations
from repro.corpus.dataset import BugDataset
from repro.pipeline.autoclassifier import AutoClassifier, ClassifierKind


@dataclass(frozen=True)
class DiagnosisSuggestion:
    """One ranked hypothesis for a dimension of a new bug."""

    dimension: str
    tag: str
    confidence: float
    rationale: str


class DiagnosisAssistant:
    """Train on a labeled corpus, then triage new bug descriptions.

    ``diagnose`` runs text classifiers for the observable dimensions and
    augments them with correlation rules mined from the corpus (SS VII-B):
    once a trigger or symptom is predicted, strongly-correlated root causes
    and fixes are suggested even when the text itself is uninformative
    (which, for fixes, it usually is — the paper could not predict fixes
    from descriptions, and neither can the text model alone).
    """

    #: Dimensions predicted directly from text, in prediction order.
    TEXT_DIMENSIONS = ("symptom", "trigger", "bug_type")
    #: Correlation strength below which a rule is not worth suggesting.
    MIN_RULE_STRENGTH = 0.25

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self._classifiers: dict[str, AutoClassifier] = {}
        self._rules: list = []
        self._fitted = False

    def fit(self, dataset: BugDataset) -> "DiagnosisAssistant":
        """Train the per-dimension text classifiers and mine the rules."""
        texts = dataset.texts()
        for dimension in self.TEXT_DIMENSIONS:
            classifier = AutoClassifier(kind=ClassifierKind.SVM, seed=self.seed)
            classifier.fit(texts, dataset.labels(dimension))
            self._classifiers[dimension] = classifier
        self._rules = [
            c
            for c in pairwise_correlations(dataset)
            if c.phi >= self.MIN_RULE_STRENGTH
        ]
        self._fitted = True
        return self

    def diagnose(self, description: str) -> list[DiagnosisSuggestion]:
        """Ranked suggestions across dimensions for one bug description."""
        if not self._fitted:
            raise RuntimeError("DiagnosisAssistant.diagnose called before fit")
        suggestions: list[DiagnosisSuggestion] = []
        predicted: dict[str, str] = {}
        for dimension, classifier in self._classifiers.items():
            tag = classifier.predict([description])[0]
            predicted[dimension] = tag
            suggestions.append(
                DiagnosisSuggestion(
                    dimension=dimension,
                    tag=tag,
                    confidence=0.8,
                    rationale="text classifier prediction",
                )
            )
        # Correlation rules: propagate from predicted tags to other dimensions.
        for rule in self._rules:
            for src_dim, src_tag, dst_dim, dst_tag in (
                (rule.dimension_a, rule.tag_a, rule.dimension_b, rule.tag_b),
                (rule.dimension_b, rule.tag_b, rule.dimension_a, rule.tag_a),
            ):
                if predicted.get(src_dim) == src_tag and dst_dim not in predicted:
                    suggestions.append(
                        DiagnosisSuggestion(
                            dimension=dst_dim,
                            tag=dst_tag,
                            confidence=min(0.75, rule.phi),
                            rationale=(
                                f"correlated with {src_dim}={src_tag} "
                                f"(phi={rule.phi:.2f})"
                            ),
                        )
                    )
        return sorted(suggestions, key=lambda s: -s.confidence)
