"""Coverage evaluation: frameworks x fault catalog (Table VI + SS VII-C).

Two layers:

* the *capability matrix* — for every framework and fault, whether the
  framework's published capability model claims detection/recovery;
* the *mechanical validation* — running the executable strategies against
  the actual fault scenarios, which reproduces the paper's conclusion that
  detection is broadly available while recovery from deterministic bugs is
  essentially limited to input transformation on network events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faultinjection.faults import default_catalog
from repro.frameworks.registry import default_registry
from repro.frameworks.strategies import (
    InputFilterStrategy,
    RecoveryAttempt,
    ReplayStrategy,
    RestartStrategy,
    STSMinimizationStrategy,
    SupervisedRestartStrategy,
)
from repro.taxonomy import BugType, Trigger


@dataclass(frozen=True)
class CoverageCell:
    """One (framework, fault) cell of the coverage matrix."""

    framework: str
    fault_id: str
    trigger: Trigger
    bug_type: BugType
    detects: bool
    recovers: bool


@dataclass
class CoverageReport:
    """The full matrix plus aggregate rates."""

    cells: list[CoverageCell] = field(default_factory=list)

    def for_framework(self, name: str) -> list[CoverageCell]:
        return [c for c in self.cells if c.framework == name]

    def detection_rate(self, name: str) -> float:
        cells = self.for_framework(name)
        return sum(1 for c in cells if c.detects) / len(cells)

    def recovery_rate(self, name: str, *, bug_type: BugType | None = None) -> float:
        cells = self.for_framework(name)
        if bug_type is not None:
            cells = [c for c in cells if c.bug_type is bug_type]
        if not cells:
            return 0.0
        return sum(1 for c in cells if c.recovers) / len(cells)

    def trigger_coverage(self, trigger: Trigger) -> dict[str, bool]:
        """Per framework: can it recover *any* fault with this trigger?"""
        coverage: dict[str, bool] = {}
        for cell in self.cells:
            if cell.trigger is trigger:
                coverage[cell.framework] = coverage.get(cell.framework, False) or cell.recovers
        return coverage

    def frameworks(self) -> list[str]:
        return sorted({c.framework for c in self.cells})


def evaluate_coverage(*, seed: int = 0) -> CoverageReport:
    """Build the capability coverage matrix over the fault catalog.

    Detection uses each fault's *observed* outcome (executed once per fault),
    so a framework only gets detection credit for symptoms that actually
    manifest in the simulator.
    """
    registry = default_registry()
    catalog = default_catalog()
    report = CoverageReport()
    outcomes = {spec.fault_id: spec.execute(seed) for spec in catalog}
    for name, model in sorted(registry.items()):
        for spec in catalog:
            outcome = outcomes[spec.fault_id]
            if outcome.symptom is None:
                # The fault did not manifest for this seed; nothing to
                # detect.  (Non-deterministic faults may be silent.)
                detects = False
            else:
                detects = model.can_detect(spec.trigger, outcome.symptom)
            recovers = detects and model.can_recover(spec.trigger, spec.bug_type)
            report.cells.append(
                CoverageCell(
                    framework=name,
                    fault_id=spec.fault_id,
                    trigger=spec.trigger,
                    bug_type=spec.bug_type,
                    detects=detects,
                    recovers=recovers,
                )
            )
    return report


def mechanical_validation(*, seed: int = 0) -> dict[str, list[RecoveryAttempt]]:
    """Run the executable strategies against every catalog fault."""
    catalog = default_catalog()
    strategies = [
        RestartStrategy(),
        ReplayStrategy(),
        InputFilterStrategy(),
        SupervisedRestartStrategy(),
        STSMinimizationStrategy(),
    ]
    results: dict[str, list[RecoveryAttempt]] = {}
    for strategy in strategies:
        results[strategy.name] = [
            strategy.attempt(spec, seed=seed) for spec in catalog
        ]
    return results


def deterministic_recovery_gap(report: CoverageReport) -> dict[str, float]:
    """Per framework, recovery rate on deterministic faults — the paper's
    headline gap (most are ~0)."""
    return {
        name: report.recovery_rate(name, bug_type=BugType.DETERMINISTIC)
        for name in report.frameworks()
    }
