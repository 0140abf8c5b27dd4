"""Framework capability models, recovery strategies, coverage evaluation."""

from __future__ import annotations

import pytest

from repro.faultinjection.faults import catalog_by_id
from repro.frameworks import (
    InputFilterStrategy,
    ReplayStrategy,
    RestartStrategy,
    default_registry,
    evaluate_coverage,
)
from repro.frameworks.evaluator import deterministic_recovery_gap, mechanical_validation
from repro.taxonomy import BugType, Symptom, Trigger


class TestRegistry:
    def test_known_systems_present(self):
        registry = default_registry()
        for name in ("Ravana", "LegoSDN", "SCL", "RoseMary", "STS", "SPHINX"):
            assert name in registry

    def test_ravana_capability_shape(self):
        ravana = default_registry()["Ravana"]
        assert ravana.can_detect(Trigger.NETWORK_EVENTS, Symptom.FAIL_STOP)
        assert not ravana.can_detect(Trigger.CONFIGURATION, Symptom.FAIL_STOP)
        assert ravana.can_recover(Trigger.NETWORK_EVENTS, BugType.NON_DETERMINISTIC)
        assert not ravana.can_recover(Trigger.NETWORK_EVENTS, BugType.DETERMINISTIC)

    def test_diagnosis_only_never_recovers(self):
        sts = default_registry()["STS"]
        for trigger in Trigger:
            for bug_type in BugType:
                assert not sts.can_recover(trigger, bug_type)

    def test_input_transformers_recover_deterministic(self):
        for name in ("LegoSDN", "Bouncer"):
            model = default_registry()[name]
            assert model.can_recover(Trigger.NETWORK_EVENTS, BugType.DETERMINISTIC)


class TestStrategies:
    def test_restart_detects_only_failstop(self):
        restart = RestartStrategy()
        gray = catalog_by_id()["external-tsdb-type"]  # gray failure
        attempt = restart.attempt(gray, seed=0)
        assert not attempt.detected

    def test_restart_fails_on_deterministic_crash(self):
        restart = RestartStrategy()
        crash = catalog_by_id()["config-missing-multicast"]
        attempt = restart.attempt(crash, seed=0)
        assert attempt.detected and not attempt.recovered

    def test_restart_recovers_nondeterministic_crash(self):
        restart = RestartStrategy()
        race = catalog_by_id()["network-startup-race"]
        # Find a seed where the race manifests; the restart (different seed)
        # then has a good chance of coming up healthy.
        for seed in range(10):
            if race.execute(seed).symptom is Symptom.FAIL_STOP:
                attempt = restart.attempt(race, seed=seed)
                assert attempt.detected
                assert attempt.recovered
                return
        pytest.fail("race never manifested in 10 seeds")

    def test_replay_fails_on_deterministic_crash(self):
        replay = ReplayStrategy()
        crash = catalog_by_id()["network-malformed-frame"]
        attempt = replay.attempt(crash, seed=0)
        assert attempt.detected and not attempt.recovered
        assert "same failure" in attempt.detail

    def test_replay_detects_stall(self):
        replay = ReplayStrategy()
        stall = catalog_by_id()["reboot-olt-no-timeout"]
        attempt = replay.attempt(stall, seed=0)
        assert attempt.detected
        assert not attempt.recovered  # deterministic stall replays identically

    def test_input_filter_recovers_deterministic_network_bug(self):
        strategy = InputFilterStrategy()
        attempt = strategy.attempt(catalog_by_id()["network-malformed-frame"], seed=0)
        assert attempt.detected and attempt.recovered

    def test_input_filter_cannot_touch_config_triggers(self):
        strategy = InputFilterStrategy()
        attempt = strategy.attempt(catalog_by_id()["config-missing-multicast"], seed=0)
        assert attempt.detected and not attempt.recovered
        assert "does not pass through" in attempt.detail


class TestCoverage:
    @pytest.fixture(scope="class")
    def report(self):
        return evaluate_coverage(seed=0)

    def test_matrix_dimensions(self, report):
        frameworks = report.frameworks()
        assert len(report.cells) == len(frameworks) * len(catalog_by_id())

    def test_no_framework_covers_everything(self, report):
        """The paper: 'no one technique can recover from bugs across all
        root causes effectively'."""
        for name in report.frameworks():
            assert report.recovery_rate(name) < 0.5

    def test_deterministic_recovery_gap(self, report):
        """Recovery from deterministic bugs is nearly absent — only input
        transformers (LegoSDN, Bouncer) score above zero."""
        gap = deterministic_recovery_gap(report)
        above_zero = {name for name, rate in gap.items() if rate > 0}
        assert above_zero <= {"LegoSDN", "Bouncer"}
        assert above_zero  # but they do exist

    def test_detection_broader_than_recovery(self, report):
        for name in report.frameworks():
            assert report.detection_rate(name) >= report.recovery_rate(name)

    def test_network_events_best_covered_trigger(self, report):
        """Most systems focus on OpenFlow-triggered bugs (SS VII-C)."""
        per_trigger = {
            trigger: sum(report.trigger_coverage(trigger).values())
            for trigger in Trigger
        }
        assert per_trigger[Trigger.NETWORK_EVENTS] == max(per_trigger.values())
        assert per_trigger[Trigger.HARDWARE_REBOOTS] == 0

    def test_mechanical_validation_consistent_with_matrix(self):
        """The executed strategies agree with the capability story: replay
        never beats a deterministic bug; the filter only wins on network
        events."""
        results = mechanical_validation(seed=0)
        catalog = catalog_by_id()
        for attempt in results["replay"]:
            if catalog[attempt.fault_id].bug_type is BugType.DETERMINISTIC:
                assert not attempt.recovered
        for attempt in results["input_filter"]:
            if attempt.recovered:
                assert catalog[attempt.fault_id].trigger is Trigger.NETWORK_EVENTS

    def test_sts_minimization_row_is_diagnosis_only(self):
        """The trace-minimization strategy detects manifest symptoms but
        never repairs the system — the paper's 'diagnosis only' cell."""
        results = mechanical_validation(seed=0)
        assert "sts_minimization" in results
        attempts = results["sts_minimization"]
        assert any(a.detected for a in attempts)
        assert not any(a.recovered for a in attempts)
        for attempt in attempts:
            if not attempt.detected:
                assert "nothing to minimize" in attempt.detail
