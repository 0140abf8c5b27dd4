"""Campaign runner: execute the fault catalog, compare against expectations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faultinjection.faults import FaultSpec, default_catalog
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import ResilienceConfig
from repro.resilience.supervisor import RestartRun, SupervisedRestart
from repro.sdnsim.observers import Outcome
from repro.taxonomy import BugType, RootCause, Symptom

if TYPE_CHECKING:  # pragma: no cover
    from repro.adversary.schedule import FaultSchedule
    from repro.adversary.world import AdversaryResult


@dataclass
class FaultResult:
    """Outcome of one fault execution (possibly over several seeds)."""

    spec: FaultSpec
    outcomes: list[Outcome]

    @property
    def manifestation_rate(self) -> float:
        hits = sum(1 for o in self.outcomes if o.symptom is not None)
        return hits / len(self.outcomes)

    @property
    def matches_expectation(self) -> bool:
        """True when the expected symptom (and mode) was observed."""
        for outcome in self.outcomes:
            if outcome.symptom is not self.spec.expected_symptom:
                continue
            if (
                self.spec.expected_mode is not None
                and outcome.byzantine_mode is not self.spec.expected_mode
            ):
                continue
            return True
        return False


@dataclass
class CampaignResult:
    """All fault results from one campaign."""

    results: list[FaultResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def result_for(self, fault_id: str) -> FaultResult:
        for result in self.results:
            if result.spec.fault_id == fault_id:
                return result
        raise KeyError(fault_id)

    @property
    def expectation_match_rate(self) -> float:
        matched = sum(1 for r in self.results if r.matches_expectation)
        return matched / len(self.results)

    def deterministic_results(self) -> list[FaultResult]:
        return [
            r for r in self.results if r.spec.bug_type is BugType.DETERMINISTIC
        ]

    def nondeterministic_results(self) -> list[FaultResult]:
        return [
            r for r in self.results if r.spec.bug_type is BugType.NON_DETERMINISTIC
        ]


class FaultCampaign:
    """Run every catalog fault over ``seeds_per_fault`` seeds.

    Deterministic faults should manifest on every seed; non-deterministic
    ones only on some — the campaign verifies the taxonomy's determinism
    dimension mechanically.
    """

    def __init__(self, *, seeds_per_fault: int = 3, base_seed: int = 0) -> None:
        if seeds_per_fault < 1:
            raise ValueError("seeds_per_fault must be >= 1")
        self.catalog = default_catalog()
        self.seeds_per_fault = seeds_per_fault
        self.base_seed = base_seed

    def _seeds(self) -> range:
        return range(self.base_seed, self.base_seed + self.seeds_per_fault)

    def run(self) -> CampaignResult:
        """Execute the catalog, each spec over every seed, in catalog order."""
        return CampaignResult(results=[
            FaultResult(spec=spec, outcomes=[spec.execute(seed) for seed in self._seeds()])
            for spec in self.catalog
        ])

    def run_ab(self) -> AbReport:
        """Run every fault twice — bare, then hardened — and pair the results.

        The hardened arm runs inside :func:`resilience_context` (so every
        scenario gets the guarded TSDB) under a :class:`SupervisedRestart`
        harness (so detectable fail-stop/stall outcomes get restarted within
        the intensity budget).  The report quantifies the paper's §VII
        lesson: restart-style recovery pays off only against
        non-deterministic bugs; deterministic ones re-manifest and remain as
        residual symptoms.
        """
        from repro.faultinjection.scenario import resilience_context

        report = AbReport(ledger=ResilienceLedger())
        for spec in self.catalog:
            baseline = [spec.execute(seed) for seed in self._seeds()]
            restarter = SupervisedRestart(
                backoff=ResilienceConfig.restart_backoff,
                ledger=report.ledger,
                component=spec.fault_id,
            )
            with resilience_context(report.ledger):
                hardened = [
                    restarter.run(spec.execute, seed, trigger=spec.trigger)
                    for seed in self._seeds()
                ]
            report.results.append(
                AbFaultResult(spec=spec, baseline=baseline, hardened=hardened)
            )
        return report

    def run_adversarial_ab(self, *, events: int = 20) -> "AdversarialAbReport":
        """Message-level A/B: replay fault schedules bare vs hardened.

        Each schedule (one per configured seed) is replayed twice against
        the adversary world: bare — buggy ONOS-5992 quorum accounting,
        last-writer-wins mastership views, no retransmission — and
        hardened, the PR-1-style build (fixed quorum, term-checked views,
        retry with ledger pricing, anti-entropy on heal).  The report
        compares *per-invariant* violating-subject counts between the arms.
        """
        from repro.adversary.schedule import random_schedule
        from repro.adversary.world import run_adversary

        report = AdversarialAbReport(
            bare_ledger=ResilienceLedger(), hardened_ledger=ResilienceLedger()
        )
        for seed in self._seeds():
            schedule = random_schedule(seed, events=events)
            report.schedules.append(schedule)
            report.bare.append(
                run_adversary(schedule, hardened=False, ledger=report.bare_ledger)
            )
            report.hardened.append(
                run_adversary(schedule, hardened=True, ledger=report.hardened_ledger)
            )
        return report


@dataclass
class AdversarialAbReport:
    """Paired bare/hardened adversary runs over the same schedules.

    The comparison unit is the *violating subject* — a distinct
    (invariant, device-or-cluster) pair that broke at least once — which
    keeps flapping liveness properties from over-counting either arm.
    """

    bare_ledger: ResilienceLedger
    hardened_ledger: ResilienceLedger
    schedules: "list[FaultSchedule]" = field(default_factory=list)
    bare: "list[AdversaryResult]" = field(default_factory=list)
    hardened: "list[AdversaryResult]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.schedules)

    @staticmethod
    def _counts(results: "list[AdversaryResult]") -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in results:
            for invariant, n in result.distinct_by_invariant().items():
                counts[invariant] = counts.get(invariant, 0) + n
        return counts

    def per_invariant(self) -> dict[str, tuple[int, int]]:
        """``invariant -> (bare, hardened)`` violating-subject counts."""
        bare = self._counts(self.bare)
        hardened = self._counts(self.hardened)
        return {
            name: (bare.get(name, 0), hardened.get(name, 0))
            for name in sorted(set(bare) | set(hardened))
        }

    @property
    def bare_violation_count(self) -> int:
        return sum(len(r.violated_subjects()) for r in self.bare)

    @property
    def hardened_violation_count(self) -> int:
        return sum(len(r.violated_subjects()) for r in self.hardened)

    @property
    def violation_reduction(self) -> int:
        """Violating subjects the hardened build absorbed."""
        return self.bare_violation_count - self.hardened_violation_count

    def summary(self) -> dict[str, object]:
        return {
            "schedules": len(self.schedules),
            "events_per_schedule": [len(s) for s in self.schedules],
            "bare_violations": self.bare_violation_count,
            "hardened_violations": self.hardened_violation_count,
            "violation_reduction": self.violation_reduction,
            "hardened_retries": self.hardened_ledger.count(ResilienceEvent.RETRY),
        }


@dataclass
class AbFaultResult:
    """Paired bare/hardened outcomes for one fault over the same seeds."""

    spec: FaultSpec
    baseline: list[Outcome]
    hardened: list[RestartRun]

    @staticmethod
    def _symptom_rate(outcomes: list[Outcome]) -> float:
        hits = sum(1 for o in outcomes if o.symptom is not None)
        return hits / len(outcomes) if outcomes else 0.0

    @property
    def baseline_symptom_rate(self) -> float:
        return self._symptom_rate(self.baseline)

    @property
    def hardened_symptom_rate(self) -> float:
        return self._symptom_rate([run.outcome for run in self.hardened])

    @property
    def improved(self) -> bool:
        return self.hardened_symptom_rate < self.baseline_symptom_rate

    @property
    def restarts(self) -> int:
        return sum(run.restarts for run in self.hardened)

    @property
    def recovery_latency(self) -> float:
        """Total backoff seconds spent by runs that actually recovered."""
        return sum(run.recovery_latency for run in self.hardened if run.recovered)

    @property
    def residual_symptoms(self) -> set[Symptom]:
        """Symptoms the hardening failed to absorb."""
        return {
            run.outcome.symptom
            for run in self.hardened
            if run.outcome.symptom is not None
        }


@dataclass
class AbReport:
    """Campaign-level A/B comparison plus the shared resilience ledger."""

    ledger: ResilienceLedger
    results: list[AbFaultResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def result_for(self, fault_id: str) -> AbFaultResult:
        for result in self.results:
            if result.spec.fault_id == fault_id:
                return result
        raise KeyError(fault_id)

    def _runs(self) -> int:
        return sum(len(r.baseline) for r in self.results)

    @property
    def baseline_symptom_rate(self) -> float:
        """Fraction of all bare runs that surfaced a symptom."""
        runs = self._runs()
        hits = sum(
            1 for r in self.results for o in r.baseline if o.symptom is not None
        )
        return hits / runs if runs else 0.0

    @property
    def hardened_symptom_rate(self) -> float:
        runs = self._runs()
        hits = sum(
            1
            for r in self.results
            for run in r.hardened
            if run.outcome.symptom is not None
        )
        return hits / runs if runs else 0.0

    @property
    def symptom_reduction(self) -> float:
        """Absolute drop in the per-run symptom rate bought by hardening."""
        return self.baseline_symptom_rate - self.hardened_symptom_rate

    @property
    def mean_recovery_latency(self) -> float:
        """Mean backoff seconds per recovered restart run."""
        recovered = [
            run for r in self.results for run in r.hardened if run.recovered
        ]
        if not recovered:
            return 0.0
        return sum(run.recovery_latency for run in recovered) / len(recovered)

    def improved_results(self) -> list[AbFaultResult]:
        return [r for r in self.results if r.improved]

    def residual_by_root_cause(self) -> dict[RootCause, int]:
        """Hardened runs still symptomatic, grouped by the fault's root cause.

        This is the campaign's punchline table: what survives retry,
        breaker, and supervised restart is dominated by deterministic root
        causes (missing logic, misconfiguration) that demand input-level
        fixes, not another restart.
        """
        breakdown: dict[RootCause, int] = {}
        for result in self.results:
            residual = sum(
                1 for run in result.hardened if run.outcome.symptom is not None
            )
            if residual:
                breakdown[result.spec.root_cause] = (
                    breakdown.get(result.spec.root_cause, 0) + residual
                )
        return breakdown

    def summary(self) -> dict[str, object]:
        """The headline numbers, ready for reporting/benchmark tables."""
        return {
            "faults": len(self.results),
            "runs_per_arm": self._runs(),
            "baseline_symptom_rate": round(self.baseline_symptom_rate, 4),
            "hardened_symptom_rate": round(self.hardened_symptom_rate, 4),
            "symptom_reduction": round(self.symptom_reduction, 4),
            "improved_faults": [
                r.spec.fault_id for r in self.improved_results()
            ],
            "mean_recovery_latency": round(self.mean_recovery_latency, 3),
            "ledger_events": len(self.ledger),
        }
