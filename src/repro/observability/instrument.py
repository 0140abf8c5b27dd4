"""Bridges from existing subsystems onto the :class:`MetricsRegistry`.

Each subsystem keeps its own native accounting (the serving daemon's
``ServingStats`` dataclass, the resilience ledger's record list, the
artifact cache's plain-int counters) — those shapes are pinned by
regression tests and by fingerprint contracts, so the observability
layer *projects* them onto registries rather than replacing them.  The
projections here are pure functions: calling them never mutates the
source object, so they are safe to run mid-flight or post-mortem.
"""

from __future__ import annotations

from typing import Any

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


def cache_to_metrics(cache: Any) -> MetricsRegistry:
    """Normalize ``ArtifactCache.stats()`` onto a registry.

    Hit/miss/quarantine/store tallies become ``cache_*_total`` counters;
    the entry-age aggregates (levels, not totals) become gauges.  The
    ``stats()`` dict itself stays the cache's public API — this is the
    report-facing projection.
    """
    registry = MetricsRegistry()
    stats = dict(cache.stats())
    ages = {
        name: stats.pop(name)
        for name in ("age_min", "age_max", "age_mean", "age_tracked")
        if name in stats
    }
    for name in sorted(stats):
        value = stats[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.counter(
            f"cache_{name}_total", f"Artifact cache {name}"
        ).inc(float(value))
    for name in sorted(ages):
        value = ages[name]
        if value is None or isinstance(value, bool):
            continue
        registry.gauge(
            f"cache_{name}", f"Artifact cache entry {name.replace('_', ' ')}"
        ).set(float(value))
    return registry
