"""Per-controller statistical profiles calibrated to the paper's numbers.

A profile is a generative model over :class:`~repro.taxonomy.BugLabel`:

    trigger ~ trigger_dist
    root_cause ~ root_cause_given_trigger[trigger]
    symptom ~ symptom_given_cause[root_cause]
    byzantine_mode ~ byzantine_mode_dist          (iff symptom is byzantine)
    fix ~ fix rules (trigger table + concurrency override)
    bug_type ~ Bernoulli(det_rate(root_cause))

The conditional tables below were tuned so that the implied *marginals*
reproduce the paper: trigger shares (SS V-A), symptom shares (SS IV),
per-controller determinism (SS III), configuration sub-categories
(Table III), FAUCET's 52.5% missing-logic share and the CORD 30% / ONOS 16%
load-bug split (SS VII-A).  ``expected_*_marginal`` methods expose the exact
implied marginals so tests can verify calibration analytically, without
sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Mapping

from repro.errors import CorpusError
from repro.taxonomy import (
    ByzantineMode,
    ConfigSubcategory,
    ExternalCallKind,
    FixStrategy,
    RootCause,
    Symptom,
    Trigger,
)

_TOLERANCE = 1e-6


def _check_distribution(name: str, dist: Mapping) -> None:
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-6:
        raise CorpusError(f"{name} sums to {total}, expected 1.0")
    if any(p < 0 for p in dist.values()):
        raise CorpusError(f"{name} contains negative probabilities")


@dataclass(frozen=True)
class ControllerProfile:
    """Generative distribution over bug labels for one controller."""

    name: str
    critical_bug_count: int
    trigger_dist: dict[Trigger, float]
    root_cause_given_trigger: dict[Trigger, dict[RootCause, float]]
    symptom_given_cause: dict[RootCause, dict[Symptom, float]]
    byzantine_mode_dist: dict[ByzantineMode, float]
    config_subcategory_dist: dict[ConfigSubcategory, float]
    external_kind_dist: dict[ExternalCallKind, float]
    fix_given_trigger: dict[Trigger, dict[FixStrategy, float]]
    determinism_target: float
    #: Determinism rates pinned per root cause (SS VII-B: "memory bugs are
    #: highly deterministic"; concurrency bugs are the non-deterministic pool).
    pinned_determinism: dict[RootCause, float] = field(
        default_factory=lambda: {RootCause.MEMORY: 0.995, RootCause.CONCURRENCY: 0.60}
    )
    #: Release dates used to model bug bursts (SS II-B observation 2).
    release_dates: tuple[datetime, ...] = ()

    def __post_init__(self) -> None:
        _check_distribution(f"{self.name}.trigger_dist", self.trigger_dist)
        for trigger, dist in self.root_cause_given_trigger.items():
            _check_distribution(f"{self.name}.root_cause|{trigger.value}", dist)
        for cause, dist in self.symptom_given_cause.items():
            _check_distribution(f"{self.name}.symptom|{cause.value}", dist)
        _check_distribution(f"{self.name}.byzantine_mode", self.byzantine_mode_dist)
        _check_distribution(f"{self.name}.config_subcategory", self.config_subcategory_dist)
        _check_distribution(f"{self.name}.external_kind", self.external_kind_dist)
        for trigger, dist in self.fix_given_trigger.items():
            _check_distribution(f"{self.name}.fix|{trigger.value}", dist)
        if not 0.0 < self.determinism_target <= 1.0:
            raise CorpusError("determinism_target must be in (0, 1]")

    # -- implied marginals (analytic, no sampling) ---------------------------
    def expected_root_cause_marginal(self) -> dict[RootCause, float]:
        """P(root_cause) implied by trigger_dist x root_cause_given_trigger."""
        marginal: dict[RootCause, float] = {cause: 0.0 for cause in RootCause}
        for trigger, p_trigger in self.trigger_dist.items():
            for cause, p_cause in self.root_cause_given_trigger[trigger].items():
                marginal[cause] += p_trigger * p_cause
        return marginal

    def determinism_rate(self, cause: RootCause) -> float:
        """P(deterministic | root cause), solved so the weighted aggregate
        equals ``determinism_target`` with the pinned causes held fixed."""
        if cause in self.pinned_determinism:
            return self.pinned_determinism[cause]
        marginal = self.expected_root_cause_marginal()
        pinned_mass = sum(marginal[c] for c in self.pinned_determinism)
        pinned_det = sum(
            marginal[c] * rate for c, rate in self.pinned_determinism.items()
        )
        free_mass = 1.0 - pinned_mass
        if free_mass <= _TOLERANCE:
            return self.determinism_target
        rate = (self.determinism_target - pinned_det) / free_mass
        return min(1.0, max(0.0, rate))

    def fix_distribution(self, trigger: Trigger, cause: RootCause) -> dict[FixStrategy, float]:
        """Fix distribution after applying the concurrency override.

        SS VII-B: concurrency bugs correlate strongly with the
        "add synchronization" fix; the override mixes 70% of the mass there.
        """
        base = dict(self.fix_given_trigger[trigger])
        if cause is RootCause.CONCURRENCY:
            mixed = {fix: 0.3 * p for fix, p in base.items()}
            mixed[FixStrategy.ADD_SYNCHRONIZATION] = (
                mixed.get(FixStrategy.ADD_SYNCHRONIZATION, 0.0) + 0.7
            )
            return mixed
        return base


# ---------------------------------------------------------------------------
# Shared fix tables (SS V-A):
#   * configuration-triggered bugs: only 25% fixed via configuration change;
#   * external-call bugs: 41.4% fixed by adding compatibility;
#   * network-event bugs: "often addressed by adding additional logic";
#   * reboot bugs: timeouts and state-tracking logic (VOL-549).
# ---------------------------------------------------------------------------
_FIX_TABLES: dict[Trigger, dict[FixStrategy, float]] = {
    Trigger.CONFIGURATION: {
        FixStrategy.FIX_CONFIGURATION: 0.25,
        FixStrategy.ADD_LOGIC: 0.36,
        FixStrategy.WORKAROUND: 0.14,
        FixStrategy.ADD_COMPATIBILITY: 0.13,
        FixStrategy.UPGRADE_PACKAGES: 0.06,
        FixStrategy.ROLLBACK_UPGRADES: 0.06,
    },
    Trigger.EXTERNAL_CALLS: {
        FixStrategy.ADD_COMPATIBILITY: 0.414,
        FixStrategy.UPGRADE_PACKAGES: 0.16,
        FixStrategy.ADD_LOGIC: 0.19,
        FixStrategy.WORKAROUND: 0.10,
        FixStrategy.ROLLBACK_UPGRADES: 0.056,
        FixStrategy.FIX_CONFIGURATION: 0.08,
    },
    Trigger.NETWORK_EVENTS: {
        FixStrategy.ADD_LOGIC: 0.68,
        FixStrategy.WORKAROUND: 0.14,
        FixStrategy.ADD_SYNCHRONIZATION: 0.10,
        FixStrategy.ROLLBACK_UPGRADES: 0.04,
        FixStrategy.ADD_COMPATIBILITY: 0.04,
    },
    Trigger.HARDWARE_REBOOTS: {
        FixStrategy.ADD_LOGIC: 0.55,
        FixStrategy.WORKAROUND: 0.23,
        FixStrategy.FIX_CONFIGURATION: 0.10,
        FixStrategy.ADD_SYNCHRONIZATION: 0.12,
    },
}

#: SS IV: byzantine refinement shares (they sum to 1 in the paper).
_BYZANTINE_MODES = {
    ByzantineMode.GRAY_FAILURE: 0.5217,
    ByzantineMode.STALL: 0.2065,
    ByzantineMode.INCORRECT_BEHAVIOR: 0.2718,
}

_EXTERNAL_KINDS = {
    ExternalCallKind.THIRD_PARTY_CALLS: 0.55,
    ExternalCallKind.APPLICATION_CALLS: 0.27,
    ExternalCallKind.SYSTEM_CALLS: 0.18,
}


def _faucet_profile() -> ControllerProfile:
    """FAUCET: monolithic Python controller on GitHub.

    Fig 2: fail-stop caused by human mistakes / ecosystem interactions (not
    controller logic); performance bugs come from ecosystem interactions.
    SS VII-A: 52.5% of all bugs are missing logic.
    """
    return ControllerProfile(
        name="FAUCET",
        critical_bug_count=251,
        determinism_target=0.96,
        trigger_dist={
            Trigger.CONFIGURATION: 0.40,
            Trigger.EXTERNAL_CALLS: 0.34,
            Trigger.NETWORK_EVENTS: 0.20,
            Trigger.HARDWARE_REBOOTS: 0.06,
        },
        root_cause_given_trigger={
            Trigger.CONFIGURATION: {
                RootCause.MISSING_LOGIC: 0.56,
                RootCause.HUMAN_MISCONFIGURATION: 0.25,
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.14,
                RootCause.MEMORY: 0.05,
            },
            Trigger.EXTERNAL_CALLS: {
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.38,
                RootCause.ECOSYSTEM_APP_LIBRARY: 0.18,
                RootCause.ECOSYSTEM_SYSTEM_CALL: 0.10,
                RootCause.MISSING_LOGIC: 0.26,
                RootCause.MEMORY: 0.05,
                RootCause.CONCURRENCY: 0.03,
            },
            Trigger.NETWORK_EVENTS: {
                RootCause.MISSING_LOGIC: 0.85,
                RootCause.CONCURRENCY: 0.08,
                RootCause.MEMORY: 0.07,
            },
            Trigger.HARDWARE_REBOOTS: {
                RootCause.MISSING_LOGIC: 0.66,
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.16,
                RootCause.LOAD: 0.08,
                RootCause.CONCURRENCY: 0.10,
            },
        },
        symptom_given_cause={
            RootCause.LOAD: {
                Symptom.FAIL_STOP: 0.10,
                Symptom.BYZANTINE: 0.80,
                Symptom.ERROR_MESSAGE: 0.10,
            },
            RootCause.CONCURRENCY: {
                Symptom.BYZANTINE: 0.75,
                Symptom.FAIL_STOP: 0.05,
                Symptom.ERROR_MESSAGE: 0.10,
                Symptom.PERFORMANCE: 0.10,
            },
            RootCause.MEMORY: {
                Symptom.FAIL_STOP: 0.30,
                Symptom.BYZANTINE: 0.50,
                Symptom.ERROR_MESSAGE: 0.20,
            },
            RootCause.MISSING_LOGIC: {
                Symptom.FAIL_STOP: 0.08,
                Symptom.BYZANTINE: 0.72,
                Symptom.ERROR_MESSAGE: 0.19,
                Symptom.PERFORMANCE: 0.01,
            },
            RootCause.HUMAN_MISCONFIGURATION: {
                Symptom.FAIL_STOP: 0.45,
                Symptom.BYZANTINE: 0.40,
                Symptom.ERROR_MESSAGE: 0.15,
            },
            RootCause.ECOSYSTEM_THIRD_PARTY: {
                Symptom.FAIL_STOP: 0.38,
                Symptom.BYZANTINE: 0.35,
                Symptom.ERROR_MESSAGE: 0.17,
                Symptom.PERFORMANCE: 0.10,
            },
            RootCause.ECOSYSTEM_APP_LIBRARY: {
                Symptom.FAIL_STOP: 0.40,
                Symptom.BYZANTINE: 0.33,
                Symptom.ERROR_MESSAGE: 0.17,
                Symptom.PERFORMANCE: 0.10,
            },
            RootCause.ECOSYSTEM_SYSTEM_CALL: {
                Symptom.FAIL_STOP: 0.40,
                Symptom.BYZANTINE: 0.35,
                Symptom.ERROR_MESSAGE: 0.15,
                Symptom.PERFORMANCE: 0.10,
            },
        },
        byzantine_mode_dist=dict(_BYZANTINE_MODES),
        config_subcategory_dist={
            ConfigSubcategory.CONTROLLER: 0.529,
            ConfigSubcategory.DATA_PLANE: 0.117,
            ConfigSubcategory.THIRD_PARTY: 0.354,
        },
        external_kind_dist=dict(_EXTERNAL_KINDS),
        fix_given_trigger={t: dict(d) for t, d in _FIX_TABLES.items()},
        release_dates=(
            datetime(2016, 3, 15), datetime(2017, 2, 1), datetime(2017, 10, 10),
            datetime(2018, 6, 20), datetime(2019, 4, 2), datetime(2019, 12, 11),
        ),
    )


def _onos_profile() -> ControllerProfile:
    """ONOS: modular, distributed Java controller on JIRA.

    Fig 2: fail-stop mostly from controller logic (load, memory, missing
    logic); performance bugs from concurrency.  SS VII-A: 16% load bugs.
    """
    return ControllerProfile(
        name="ONOS",
        critical_bug_count=186,
        determinism_target=0.94,
        trigger_dist={
            Trigger.CONFIGURATION: 0.37,
            Trigger.EXTERNAL_CALLS: 0.33,
            Trigger.NETWORK_EVENTS: 0.21,
            Trigger.HARDWARE_REBOOTS: 0.09,
        },
        root_cause_given_trigger={
            Trigger.CONFIGURATION: {
                RootCause.HUMAN_MISCONFIGURATION: 0.33,
                RootCause.MISSING_LOGIC: 0.27,
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.18,
                RootCause.LOAD: 0.11,
                RootCause.MEMORY: 0.11,
            },
            Trigger.EXTERNAL_CALLS: {
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.40,
                RootCause.ECOSYSTEM_APP_LIBRARY: 0.15,
                RootCause.ECOSYSTEM_SYSTEM_CALL: 0.08,
                RootCause.MISSING_LOGIC: 0.12,
                RootCause.LOAD: 0.11,
                RootCause.MEMORY: 0.08,
                RootCause.CONCURRENCY: 0.06,
            },
            Trigger.NETWORK_EVENTS: {
                RootCause.MISSING_LOGIC: 0.33,
                RootCause.CONCURRENCY: 0.24,
                RootCause.LOAD: 0.25,
                RootCause.MEMORY: 0.18,
            },
            Trigger.HARDWARE_REBOOTS: {
                RootCause.MISSING_LOGIC: 0.38,
                RootCause.LOAD: 0.33,
                RootCause.CONCURRENCY: 0.17,
                RootCause.MEMORY: 0.12,
            },
        },
        symptom_given_cause={
            RootCause.LOAD: {
                Symptom.FAIL_STOP: 0.38,
                Symptom.BYZANTINE: 0.52,
                Symptom.ERROR_MESSAGE: 0.07,
                Symptom.PERFORMANCE: 0.03,
            },
            RootCause.CONCURRENCY: {
                Symptom.FAIL_STOP: 0.12,
                Symptom.BYZANTINE: 0.60,
                Symptom.ERROR_MESSAGE: 0.10,
                Symptom.PERFORMANCE: 0.18,
            },
            RootCause.MEMORY: {
                Symptom.FAIL_STOP: 0.40,
                Symptom.BYZANTINE: 0.44,
                Symptom.ERROR_MESSAGE: 0.13,
                Symptom.PERFORMANCE: 0.03,
            },
            RootCause.MISSING_LOGIC: {
                Symptom.FAIL_STOP: 0.22,
                Symptom.BYZANTINE: 0.63,
                Symptom.ERROR_MESSAGE: 0.14,
                Symptom.PERFORMANCE: 0.01,
            },
            RootCause.HUMAN_MISCONFIGURATION: {
                Symptom.FAIL_STOP: 0.08,
                Symptom.BYZANTINE: 0.62,
                Symptom.ERROR_MESSAGE: 0.30,
            },
            RootCause.ECOSYSTEM_THIRD_PARTY: {
                Symptom.FAIL_STOP: 0.08,
                Symptom.BYZANTINE: 0.62,
                Symptom.ERROR_MESSAGE: 0.28,
                Symptom.PERFORMANCE: 0.02,
            },
            RootCause.ECOSYSTEM_APP_LIBRARY: {
                Symptom.FAIL_STOP: 0.10,
                Symptom.BYZANTINE: 0.62,
                Symptom.ERROR_MESSAGE: 0.26,
                Symptom.PERFORMANCE: 0.02,
            },
            RootCause.ECOSYSTEM_SYSTEM_CALL: {
                Symptom.FAIL_STOP: 0.12,
                Symptom.BYZANTINE: 0.60,
                Symptom.ERROR_MESSAGE: 0.26,
                Symptom.PERFORMANCE: 0.02,
            },
        },
        byzantine_mode_dist=dict(_BYZANTINE_MODES),
        config_subcategory_dist={
            ConfigSubcategory.CONTROLLER: 0.60,
            ConfigSubcategory.DATA_PLANE: 0.15,
            ConfigSubcategory.THIRD_PARTY: 0.25,
        },
        external_kind_dist=dict(_EXTERNAL_KINDS),
        fix_given_trigger={t: dict(d) for t, d in _FIX_TABLES.items()},
        release_dates=(
            datetime(2017, 6, 8), datetime(2017, 12, 14), datetime(2018, 5, 17),
            datetime(2018, 10, 30), datetime(2019, 4, 16), datetime(2019, 9, 5),
            datetime(2019, 12, 20),
        ),
    )


def _cord_profile() -> ControllerProfile:
    """CORD: ONOS-derived Telco stack (XOS/VOLTHA/OpenStack) on JIRA.

    Fig 2: more "missing code logic" than ONOS (codebase immaturity);
    performance bugs from memory errors; SS VII-A: 30% load bugs; SS IV:
    best exception handling => fewest error-message bugs.
    """
    return ControllerProfile(
        name="CORD",
        critical_bug_count=358,
        determinism_target=0.94,
        trigger_dist={
            Trigger.CONFIGURATION: 0.39,
            Trigger.EXTERNAL_CALLS: 0.32,
            Trigger.NETWORK_EVENTS: 0.19,
            Trigger.HARDWARE_REBOOTS: 0.10,
        },
        root_cause_given_trigger={
            Trigger.CONFIGURATION: {
                RootCause.HUMAN_MISCONFIGURATION: 0.27,
                RootCause.MISSING_LOGIC: 0.33,
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.14,
                RootCause.LOAD: 0.16,
                RootCause.MEMORY: 0.10,
            },
            Trigger.EXTERNAL_CALLS: {
                RootCause.ECOSYSTEM_THIRD_PARTY: 0.33,
                RootCause.ECOSYSTEM_APP_LIBRARY: 0.10,
                RootCause.ECOSYSTEM_SYSTEM_CALL: 0.05,
                RootCause.MISSING_LOGIC: 0.14,
                RootCause.LOAD: 0.30,
                RootCause.MEMORY: 0.08,
            },
            Trigger.NETWORK_EVENTS: {
                RootCause.MISSING_LOGIC: 0.30,
                RootCause.LOAD: 0.45,
                RootCause.CONCURRENCY: 0.10,
                RootCause.MEMORY: 0.15,
            },
            Trigger.HARDWARE_REBOOTS: {
                RootCause.MISSING_LOGIC: 0.30,
                RootCause.LOAD: 0.50,
                RootCause.CONCURRENCY: 0.10,
                RootCause.MEMORY: 0.10,
            },
        },
        symptom_given_cause={
            RootCause.LOAD: {
                Symptom.FAIL_STOP: 0.26,
                Symptom.BYZANTINE: 0.65,
                Symptom.ERROR_MESSAGE: 0.05,
                Symptom.PERFORMANCE: 0.04,
            },
            RootCause.CONCURRENCY: {
                Symptom.FAIL_STOP: 0.10,
                Symptom.BYZANTINE: 0.70,
                Symptom.ERROR_MESSAGE: 0.08,
                Symptom.PERFORMANCE: 0.12,
            },
            RootCause.MEMORY: {
                Symptom.FAIL_STOP: 0.36,
                Symptom.BYZANTINE: 0.44,
                Symptom.ERROR_MESSAGE: 0.08,
                Symptom.PERFORMANCE: 0.12,
            },
            RootCause.MISSING_LOGIC: {
                Symptom.FAIL_STOP: 0.21,
                Symptom.BYZANTINE: 0.68,
                Symptom.ERROR_MESSAGE: 0.10,
                Symptom.PERFORMANCE: 0.01,
            },
            RootCause.HUMAN_MISCONFIGURATION: {
                Symptom.FAIL_STOP: 0.15,
                Symptom.BYZANTINE: 0.70,
                Symptom.ERROR_MESSAGE: 0.15,
            },
            RootCause.ECOSYSTEM_THIRD_PARTY: {
                Symptom.FAIL_STOP: 0.12,
                Symptom.BYZANTINE: 0.70,
                Symptom.ERROR_MESSAGE: 0.16,
                Symptom.PERFORMANCE: 0.02,
            },
            RootCause.ECOSYSTEM_APP_LIBRARY: {
                Symptom.FAIL_STOP: 0.12,
                Symptom.BYZANTINE: 0.70,
                Symptom.ERROR_MESSAGE: 0.16,
                Symptom.PERFORMANCE: 0.02,
            },
            RootCause.ECOSYSTEM_SYSTEM_CALL: {
                Symptom.FAIL_STOP: 0.14,
                Symptom.BYZANTINE: 0.70,
                Symptom.ERROR_MESSAGE: 0.14,
                Symptom.PERFORMANCE: 0.02,
            },
        },
        byzantine_mode_dist=dict(_BYZANTINE_MODES),
        config_subcategory_dist={
            ConfigSubcategory.CONTROLLER: 0.642,
            ConfigSubcategory.DATA_PLANE: 0.142,
            ConfigSubcategory.THIRD_PARTY: 0.216,
        },
        external_kind_dist=dict(_EXTERNAL_KINDS),
        fix_given_trigger={t: dict(d) for t, d in _FIX_TABLES.items()},
        release_dates=(
            datetime(2016, 7, 29), datetime(2017, 1, 25), datetime(2017, 8, 15),
            datetime(2018, 3, 16), datetime(2018, 12, 10), datetime(2019, 8, 1),
        ),
    )


def default_profiles() -> dict[str, ControllerProfile]:
    """The three study controllers, keyed by name."""
    return {
        "FAUCET": _faucet_profile(),
        "ONOS": _onos_profile(),
        "CORD": _cord_profile(),
    }
