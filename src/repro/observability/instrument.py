"""Bridges from existing subsystems onto the :class:`MetricsRegistry`.

Each subsystem keeps its own native accounting (the serving daemon's
``ServingStats`` dataclass, the resilience ledger's record list) — those
shapes are pinned by regression tests and by fingerprint contracts, so the
observability layer *projects* them onto registries rather than replacing
them.  The
projections here are pure functions: calling them never mutates the
source object, so they are safe to run mid-flight or post-mortem.
"""

from __future__ import annotations

from repro.observability.metrics import MetricsRegistry
from repro.resilience.ledger import ResilienceLedger


def ledger_to_metrics(
    ledger: ResilienceLedger,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Project a resilience ledger onto counters.

    Every RETRY/SHED/GIVE_UP/BREAKER_*/RESTART/DEGRADATION record becomes
    an increment of ``resilience_actions_total{event,component}``; retry
    backoff and breaker cool-downs accumulate into
    ``resilience_recovery_seconds_total``; taxonomy-tagged records also
    count into ``resilience_triggers_total{trigger}`` and
    ``resilience_symptoms_total{symptom}``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    labels = ["component", "event"]
    actions = registry.counter(
        "resilience_actions_total",
        "Resilience actions taken, by event class",
        labels=labels,
    )
    cost = registry.counter(
        "resilience_recovery_seconds_total",
        "Backoff and cool-down seconds spent recovering",
        labels=labels,
    )
    triggers = registry.counter(
        "resilience_triggers_total",
        "Resilience actions per taxonomy trigger",
        labels=["trigger"],
    )
    symptoms = registry.counter(
        "resilience_symptoms_total",
        "Resilience actions per absorbed taxonomy symptom",
        labels=["symptom"],
    )
    for record in ledger.records:
        tags = {"event": record.event.value, "component": record.component}
        actions.labels(**tags).inc()
        if record.delay:
            cost.labels(**tags).inc(record.delay)
        if record.trigger is not None:
            triggers.labels(trigger=record.trigger.value).inc()
        if record.symptom is not None:
            symptoms.labels(symptom=record.symptom.value).inc()
    return registry
