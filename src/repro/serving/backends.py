"""Execution backends for the serving daemon.

:class:`TriageBackend` is the real thing: a TF-IDF/SVM symptom
autoclassifier (trained once at boot), the precomputed corpus analytics
for queries, sdnlint for lint requests and the STS-style ddmin minimizer
for minimize requests.

:class:`HeuristicClassifier` is the bottom degradation tier: a keyword
table distilled from the training labels that answers in ~1/10 of the
full model's simulated cost at reduced accuracy.  It exists so that the
daemon can *always* say something cheap rather than nothing at all.

:class:`StubBackend` is the deterministic test double — instant answers,
scriptable failures — used by unit tests that exercise queueing and
degradation mechanics without paying for model training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import BackendError, PoisonRequestError, ServingError
from repro.serving.request import Request, RequestKind

#: Keyword vocabulary for the heuristic symptom tier, in vote order.
_HEURISTIC_KEYWORDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("fail_stop", ("crash", "abort", "exit", "dies", "killed", "restart",
                   "shut", "panic")),
    ("performance", ("slow", "latency", "cpu", "memory", "leak", "load",
                     "throughput", "degrad", "timeout")),
    ("error_message", ("error", "exception", "traceback", "warning", "log",
                       "message", "stack")),
    ("byzantine", ("wrong", "incorrect", "inconsistent", "stale", "flap",
                   "duplicate", "mismatch", "partial")),
)


class HeuristicClassifier:
    """Keyword-vote classifier: the cheapest tier that still answers.

    ``labels`` restricts votes to labels that actually occur in training
    data; ties and no-keyword texts fall back to the majority label, which
    is the best constant guess.
    """

    def __init__(self, labels: Sequence[str]) -> None:
        if not labels:
            raise ServingError("heuristic tier needs a non-empty label set")
        counts = Counter(labels)
        self.known = set(counts)
        self.fallback = max(sorted(counts), key=lambda lab: counts[lab])

    def classify(self, text: str) -> str:
        lowered = text.lower()
        votes: Counter[str] = Counter()
        for label, keywords in _HEURISTIC_KEYWORDS:
            if label not in self.known:
                continue
            votes[label] = sum(1 for kw in keywords if kw in lowered)
        if votes:
            best = max(sorted(votes), key=lambda lab: votes[lab])
            if votes[best] > 0:
                return best
        return self.fallback


@dataclass
class BatchOutcome:
    """Per-item results of one backend batch: value or error string."""

    values: list[Any] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for err in self.errors if err is not None)


def _check_poison(request: Request) -> None:
    if request.poison:
        raise PoisonRequestError(
            f"request {request.req_id}: poison payload crashed the backend"
        )


class TriageBackend:
    """The real serving backend over the repo's own analysis machinery."""

    def __init__(
        self,
        *,
        seed: int = 2020,
        lint_workspace: str | Path | None = None,
    ) -> None:
        from repro.analysis import (
            determinism_rates,
            symptom_distribution,
            trigger_distribution,
        )
        from repro.corpus import CorpusGenerator

        self.seed = seed
        corpus = CorpusGenerator(seed=seed).generate()
        self.sample = corpus.manual_sample
        self.texts = self.sample.texts()
        labels = self.sample.labels("symptom")
        self.heuristic = HeuristicClassifier(labels)
        self._model = self._build_model(labels)
        dataset = corpus.dataset
        self._queries: dict[str, Any] = {
            "symptoms": {k.value: round(v, 6) for k, v in
                         sorted(symptom_distribution(dataset).items(),
                                key=lambda kv: kv[0].value)},
            "triggers": {k.value: round(v, 6) for k, v in
                         sorted(trigger_distribution(dataset).items(),
                                key=lambda kv: kv[0].value)},
            "determinism": {k: round(v, 6) for k, v in
                            sorted(determinism_rates(dataset).items())},
        }
        self._lint_workspace = Path(lint_workspace) if lint_workspace else None

    # -- boot ------------------------------------------------------------------
    def _build_model(self, labels: Sequence[str]):
        from repro.pipeline.autoclassifier import AutoClassifier

        model = AutoClassifier(seed=self.seed, use_embeddings=False)
        model.fit(self.texts, labels)
        return model

    # -- execution -------------------------------------------------------------
    def execute_batch(self, kind: RequestKind, batch: Sequence[Request]) -> BatchOutcome:
        """Run one micro-batch; per-item faults become per-item errors."""
        if kind is RequestKind.CLASSIFY:
            return self._classify(batch)
        outcome = BatchOutcome()
        for request in batch:
            try:
                _check_poison(request)
                if kind is RequestKind.QUERY:
                    value = self.query(request.payload)
                elif kind is RequestKind.LINT:
                    value = self.lint(request.payload)
                elif kind is RequestKind.MINIMIZE:
                    value = self.minimize(request.payload)
                else:  # pragma: no cover - enum is closed
                    raise ServingError(f"unknown request kind {kind!r}")
                outcome.values.append(value)
                outcome.errors.append(None)
            except BackendError as exc:  # sdnlint: disable=dataflow.unpriced-exception (per-item errors flow to the daemon, which breakers/prices them)
                outcome.values.append(None)
                outcome.errors.append(f"{type(exc).__name__}: {exc}")
        return outcome

    def _classify(self, batch: Sequence[Request]) -> BatchOutcome:
        outcome = BatchOutcome()
        clean: list[tuple[int, str]] = []
        for index, request in enumerate(batch):
            try:
                _check_poison(request)
                if not isinstance(request.payload, str) or not request.payload:
                    raise BackendError(
                        f"request {request.req_id}: classify payload must be "
                        "a non-empty string"
                    )
                clean.append((index, request.payload))
                outcome.values.append(None)
                outcome.errors.append(None)
            except BackendError as exc:  # sdnlint: disable=dataflow.unpriced-exception (per-item errors flow to the daemon, which breakers/prices them)
                outcome.values.append(None)
                outcome.errors.append(f"{type(exc).__name__}: {exc}")
        if clean:
            predicted = self._model.predict([text for _, text in clean])
            for (index, _), label in zip(clean, predicted):
                outcome.values[index] = label
        return outcome

    # -- per-kind operations ---------------------------------------------------
    def query(self, name: Any) -> dict[str, Any]:
        if name not in self._queries:
            raise BackendError(
                f"unknown query {name!r} (known: {sorted(self._queries)})"
            )
        return self._queries[name]

    def lint(self, source: Any) -> dict[str, int]:
        from repro.staticanalysis import Analyzer

        if not isinstance(source, str):
            raise BackendError("lint payload must be Python source text")
        if self._lint_workspace is None:
            raise BackendError("lint requests need a backend lint workspace")
        self._lint_workspace.mkdir(parents=True, exist_ok=True)
        target = self._lint_workspace / "served_lint_input.py"
        target.write_text(source, encoding="utf-8")
        report = Analyzer().run([target])
        return {
            "findings": len(report.findings),
            "errors": sum(1 for f in report.findings
                          if f.severity.name == "ERROR"),
        }

    def minimize(self, schedule_seed: Any) -> dict[str, int]:
        from repro.adversary import minimize_schedule, random_schedule

        if not isinstance(schedule_seed, int):
            raise BackendError("minimize payload must be a schedule seed (int)")
        schedule = random_schedule(schedule_seed, events=8)
        result = minimize_schedule(schedule)
        return {
            "original_events": len(schedule),
            "minimized_events": len(result.minimized),
            "replays": result.replays,
        }

    # -- degraded tiers --------------------------------------------------------
    def degraded_answer(self, request: Request) -> Any:
        """The heuristic-tier answer (raises BackendError when impossible)."""
        _check_poison(request)
        if request.kind is RequestKind.CLASSIFY:
            if not isinstance(request.payload, str) or not request.payload:
                raise BackendError("classify payload must be a non-empty string")
            return self.heuristic.classify(request.payload)
        if request.kind is RequestKind.QUERY:
            return self.query(request.payload)
        raise BackendError(
            f"no heuristic tier for {request.kind.value} requests"
        )


class StubBackend:
    """Deterministic test double: echo answers, scriptable failures.

    ``fail_ids`` lists request ids whose *full-tier* execution fails;
    poison payloads fail every tier.  No training, no filesystem.
    """

    def __init__(self, *, fail_ids: Sequence[int] = ()) -> None:
        self.fail_ids = set(fail_ids)
        self.heuristic = HeuristicClassifier(["fail_stop", "byzantine"])
        self.executed_batches: list[tuple[RequestKind, tuple[int, ...]]] = []

    def execute_batch(self, kind: RequestKind, batch: Sequence[Request]) -> BatchOutcome:
        self.executed_batches.append(
            (kind, tuple(request.req_id for request in batch))
        )
        outcome = BatchOutcome()
        for request in batch:
            if request.poison or request.req_id in self.fail_ids:
                outcome.values.append(None)
                outcome.errors.append("PoisonRequestError: scripted failure")
            else:
                outcome.values.append(f"{kind.value}:{request.req_id}")
                outcome.errors.append(None)
        return outcome

    def degraded_answer(self, request: Request) -> Any:
        _check_poison(request)
        return f"heuristic:{request.req_id}"
