"""Outcome observation: map a finished scenario onto the taxonomy's symptoms.

The classifier looks at a scenario the way an operator would — did the
process die, is anything hung, do health checks disagree with reality, is
traffic going to the wrong place, did latency regress, or is it just log
noise? — and emits the corresponding Table I symptom (plus byzantine mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sdnsim.controller import ControllerRuntime
from repro.taxonomy import ByzantineMode, Symptom


@dataclass
class Observation:
    """Everything the observer measured about one scenario run."""

    crashed: bool
    crash_reason: str | None
    failed_components: list[str]
    healthy_components: list[str]
    error_count: int
    stalled: bool
    #: Forwarding-correctness checks: (description, passed) pairs.
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: Mean northbound API latency (seconds), None if no calls were made.
    api_latency: float | None = None
    #: Healthy-baseline latency for the same workload, for regressions.
    baseline_latency: float | None = None

    @property
    def forwarding_ok(self) -> bool:
        """True when every *core forwarding* check passed.

        Check descriptions use prefixes: ``forward:`` for core forwarding
        behaviour, ``feature:`` for auxiliary functionality (mirroring,
        stats, multicast).  A failed feature with healthy forwarding is a
        gray failure; failed forwarding is incorrect behaviour.
        """
        return all(ok for desc, ok in self.checks if desc.startswith("forward"))

    @property
    def features_ok(self) -> bool:
        """True when every auxiliary-feature check passed."""
        return all(ok for desc, ok in self.checks if desc.startswith("feature"))

    @property
    def all_checks_ok(self) -> bool:
        return all(ok for _desc, ok in self.checks)

    @property
    def failed_checks(self) -> list[str]:
        return [desc for desc, ok in self.checks if not ok]

    @property
    def latency_ratio(self) -> float | None:
        if self.api_latency is None or not self.baseline_latency:
            return None
        return self.api_latency / self.baseline_latency


@dataclass(frozen=True)
class Outcome:
    """The classified operational impact of one scenario."""

    symptom: Symptom | None  # None = healthy run
    byzantine_mode: ByzantineMode | None = None
    detail: str = ""


class OutcomeClassifier:
    """Classify an :class:`Observation` into a Table I symptom."""

    #: API latency, as a multiple of the baseline, that reads as a
    #: performance symptom.
    performance_threshold = 2.0

    def classify(self, obs: Observation) -> Outcome:
        """Priority order mirrors operational severity triage:
        crash > stall > partial outage > wrong behaviour > slow > log noise.
        """
        if obs.crashed:
            return Outcome(
                symptom=Symptom.FAIL_STOP,
                detail=obs.crash_reason or "controller crashed",
            )
        if obs.stalled:
            return Outcome(
                symptom=Symptom.BYZANTINE,
                byzantine_mode=ByzantineMode.STALL,
                detail="a core thread is blocked waiting",
            )
        if obs.failed_components and obs.forwarding_ok:
            return Outcome(
                symptom=Symptom.BYZANTINE,
                byzantine_mode=ByzantineMode.GRAY_FAILURE,
                detail=f"components down: {', '.join(obs.failed_components)}",
            )
        if not obs.features_ok and obs.forwarding_ok:
            return Outcome(
                symptom=Symptom.BYZANTINE,
                byzantine_mode=ByzantineMode.GRAY_FAILURE,
                detail=f"partial outage: {', '.join(obs.failed_checks)}",
            )
        if not obs.all_checks_ok:
            return Outcome(
                symptom=Symptom.BYZANTINE,
                byzantine_mode=ByzantineMode.INCORRECT_BEHAVIOR,
                detail=f"failed checks: {', '.join(obs.failed_checks)}",
            )
        ratio = obs.latency_ratio
        if ratio is not None and ratio >= self.performance_threshold:
            return Outcome(
                symptom=Symptom.PERFORMANCE,
                detail=f"API latency regressed {ratio:.1f}x",
            )
        if obs.error_count > 0:
            return Outcome(
                symptom=Symptom.ERROR_MESSAGE,
                detail=f"{obs.error_count} errors logged, no functional impact",
            )
        return Outcome(symptom=None, detail="healthy")


def observe(
    runtime: ControllerRuntime,
    *,
    stalled: bool = False,
    checks: list[tuple[str, bool]] | None = None,
    baseline_latency: float | None = None,
) -> Observation:
    """Snapshot a runtime into an :class:`Observation`."""
    latencies = runtime.api_latencies
    return Observation(
        crashed=runtime.crashed,
        crash_reason=runtime.crash_reason,
        failed_components=runtime.failed_components,
        healthy_components=runtime.healthy_components,
        error_count=len(runtime.errors),
        stalled=stalled,
        checks=list(checks or []),
        api_latency=(sum(latencies) / len(latencies)) if latencies else None,
        baseline_latency=baseline_latency,
    )
