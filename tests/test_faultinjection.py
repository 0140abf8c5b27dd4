"""Fault catalog, campaign, case studies, and outcome classification."""

from __future__ import annotations

import pytest

from repro.errors import InjectionError
from repro.faultinjection import (
    CASE_RUNNERS,
    FaultCampaign,
    default_catalog,
    run_case,
)
from repro.adversary.schedule import random_schedule
from repro.adversary.world import run_adversary
from repro.faultinjection.faults import catalog_by_id
from repro.faultinjection.scenario import build_scenario, resilience_context, run_workload
from repro.resilience.ledger import ResilienceLedger
from repro.resilience.policies import ResilienceConfig
from repro.resilience.supervisor import SupervisedRestart
from repro.sdnsim.observers import Observation, OutcomeClassifier
from repro.taxonomy import BugType, ByzantineMode, RootCause, Symptom, Trigger


class TestOutcomeClassifier:
    def _obs(self, **kw):
        defaults = dict(
            crashed=False,
            crash_reason=None,
            failed_components=[],
            healthy_components=["forwarding"],
            error_count=0,
            stalled=False,
            checks=[],
        )
        defaults.update(kw)
        return Observation(**defaults)

    def test_healthy(self):
        outcome = OutcomeClassifier().classify(self._obs())
        assert outcome.symptom is None

    def test_crash_wins_over_everything(self):
        obs = self._obs(crashed=True, crash_reason="boom", stalled=True, error_count=5)
        assert OutcomeClassifier().classify(obs).symptom is Symptom.FAIL_STOP

    def test_stall(self):
        outcome = OutcomeClassifier().classify(self._obs(stalled=True))
        assert outcome.byzantine_mode is ByzantineMode.STALL

    def test_gray_failure_component(self):
        obs = self._obs(failed_components=["gauge"])
        outcome = OutcomeClassifier().classify(obs)
        assert outcome.byzantine_mode is ByzantineMode.GRAY_FAILURE

    def test_gray_failure_feature_check(self):
        obs = self._obs(
            checks=[("forward: core", True), ("feature: mirror", False)]
        )
        assert (
            OutcomeClassifier().classify(obs).byzantine_mode
            is ByzantineMode.GRAY_FAILURE
        )

    def test_incorrect_behavior(self):
        obs = self._obs(checks=[("forward: unicast", False)])
        assert (
            OutcomeClassifier().classify(obs).byzantine_mode
            is ByzantineMode.INCORRECT_BEHAVIOR
        )

    def test_performance_regression(self):
        obs = self._obs(api_latency=0.05, baseline_latency=0.01)
        assert OutcomeClassifier().classify(obs).symptom is Symptom.PERFORMANCE

    def test_error_messages_only(self):
        obs = self._obs(error_count=3)
        assert OutcomeClassifier().classify(obs).symptom is Symptom.ERROR_MESSAGE


class TestObservation:
    _obs = TestOutcomeClassifier._obs

    def test_forwarding_ok_ignores_feature_checks(self):
        obs = self._obs(checks=[("forward: unicast", True), ("feature: mirror", False)])
        assert obs.forwarding_ok
        assert not obs.features_ok
        assert not obs.all_checks_ok

    def test_features_ok_ignores_forwarding_checks(self):
        obs = self._obs(checks=[("forward: unicast", False), ("feature: stats", True)])
        assert obs.features_ok
        assert not obs.forwarding_ok

    def test_no_checks_means_everything_ok(self):
        obs = self._obs(checks=[])
        assert obs.forwarding_ok and obs.features_ok and obs.all_checks_ok
        assert obs.failed_checks == []

    def test_failed_checks_keep_their_order(self):
        obs = self._obs(
            checks=[
                ("feature: mirror", False),
                ("forward: unicast", True),
                ("forward: flood", False),
            ]
        )
        assert obs.failed_checks == ["feature: mirror", "forward: flood"]

    @pytest.mark.parametrize(
        ("api_latency", "baseline_latency"),
        [(None, 0.01), (0.05, None), (0.05, 0.0)],
        ids=["no-calls", "no-baseline", "zero-baseline"],
    )
    def test_latency_ratio_undefined(self, api_latency, baseline_latency):
        obs = self._obs(api_latency=api_latency, baseline_latency=baseline_latency)
        assert obs.latency_ratio is None
        # An undefined ratio never reads as a performance regression.
        assert OutcomeClassifier().classify(obs).symptom is None

    def test_latency_ratio_value(self):
        obs = self._obs(api_latency=0.03, baseline_latency=0.01)
        assert obs.latency_ratio == pytest.approx(3.0)


class TestScenario:
    def test_healthy_baseline_is_healthy(self):
        scenario = run_workload(build_scenario())
        outcome = scenario.outcome()
        assert outcome.symptom is None, outcome

    def test_workload_checks_present(self):
        scenario = run_workload(build_scenario())
        descriptions = [desc for desc, _ in scenario.checks]
        assert any(d.startswith("forward:") for d in descriptions)
        assert any(d.startswith("feature:") for d in descriptions)

    def test_baseline_stats_exported(self):
        scenario = run_workload(build_scenario())
        assert scenario.tsdb.count() > 0


class TestCatalog:
    def test_all_four_triggers_covered(self):
        triggers = {spec.trigger for spec in default_catalog()}
        assert triggers == set(Trigger)

    def test_root_cause_coverage(self):
        causes = {spec.root_cause for spec in default_catalog()}
        assert RootCause.MISSING_LOGIC in causes
        assert RootCause.CONCURRENCY in causes
        assert RootCause.MEMORY in causes
        assert RootCause.HUMAN_MISCONFIGURATION in causes
        assert RootCause.ECOSYSTEM_THIRD_PARTY in causes

    def test_ids_unique(self):
        ids = [spec.fault_id for spec in default_catalog()]
        assert len(ids) == len(set(ids))

    def test_catalog_by_id_indexes_every_fault(self):
        by_id = catalog_by_id()
        assert list(by_id) == [spec.fault_id for spec in default_catalog()]
        assert by_id["config-acl-typo"].trigger is Trigger.CONFIGURATION
        assert "nope" not in by_id

    def test_paper_references_present(self):
        refs = {
            spec.paper_reference
            for spec in default_catalog()
            if spec.paper_reference
        }
        assert {"CORD-2470", "FAUCET-355", "FAUCET-1623", "VOL-549", "CORD-1734"} <= refs

    @pytest.mark.parametrize("spec", default_catalog(), ids=lambda s: s.fault_id)
    def test_deterministic_faults_manifest_expected_symptom(self, spec):
        if spec.bug_type is not BugType.DETERMINISTIC:
            pytest.skip("non-deterministic faults are seed-dependent")
        outcome = spec.execute(seed=0)
        assert outcome.symptom is spec.expected_symptom, outcome
        if spec.expected_mode is not None:
            assert outcome.byzantine_mode is spec.expected_mode

    def test_nondeterministic_fault_varies_with_seed(self):
        spec = catalog_by_id()["network-portflap-race"]
        outcomes = {spec.execute(seed).symptom for seed in range(8)}
        assert None in outcomes  # sometimes healthy
        assert Symptom.BYZANTINE in outcomes  # sometimes bitten


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return FaultCampaign(seeds_per_fault=4).run()

    def test_every_fault_ran(self, campaign):
        assert len(campaign) == len(default_catalog())

    def test_expectation_match_rate_high(self, campaign):
        assert campaign.expectation_match_rate >= 0.9

    def test_deterministic_always_manifest(self, campaign):
        for result in campaign.deterministic_results():
            assert result.manifestation_rate == 1.0, result.spec.fault_id

    def test_nondeterministic_sometimes_silent(self, campaign):
        rates = [
            r.manifestation_rate for r in campaign.nondeterministic_results()
        ]
        assert any(rate < 1.0 for rate in rates)

    def test_result_lookup(self, campaign):
        assert campaign.result_for("reboot-olt-no-timeout").manifestation_rate > 0
        with pytest.raises(KeyError):
            campaign.result_for("nope")

    def test_seeds_validation(self):
        with pytest.raises(ValueError):
            FaultCampaign(seeds_per_fault=0)


def _rows(ledger):
    return [record.to_dict() for record in ledger.records]


class TestCampaignMatchesRunsByHand:
    """Each campaign loop against its specs, seeds and schedules run one by
    one: the shared ledger holds exactly what private per-spec (or
    per-schedule) ledgers hold, concatenated in catalog (schedule) order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run(self, seed):
        result = FaultCampaign(seeds_per_fault=2, base_seed=seed).run()
        assert [r.spec.fault_id for r in result.results] == [
            spec.fault_id for spec in default_catalog()
        ]
        for fault in result.results:
            assert fault.outcomes == [fault.spec.execute(seed + i) for i in range(2)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_ab(self, seed):
        report = FaultCampaign(seeds_per_fault=2, base_seed=seed).run_ab()
        rows = []
        for spec in default_catalog():
            ledger = ResilienceLedger()
            restarter = SupervisedRestart(
                backoff=ResilienceConfig.restart_backoff,
                ledger=ledger,
                component=spec.fault_id,
            )
            with resilience_context(ledger):
                runs = [
                    restarter.run(spec.execute, seed + i, trigger=spec.trigger)
                    for i in range(2)
                ]
            result = report.result_for(spec.fault_id)
            assert result.baseline == [spec.execute(seed + i) for i in range(2)]
            assert [run.outcome for run in result.hardened] == [
                run.outcome for run in runs
            ]
            rows += _rows(ledger)
        assert _rows(report.ledger) == rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_adversarial_ab(self, seed):
        report = FaultCampaign(seeds_per_fault=2, base_seed=seed).run_adversarial_ab(
            events=10
        )
        bare_rows, hardened_rows = [], []
        for i, schedule in enumerate(report.schedules):
            assert schedule == random_schedule(seed + i, events=10)
            bare_ledger, hardened_ledger = ResilienceLedger(), ResilienceLedger()
            bare = run_adversary(schedule, hardened=False, ledger=bare_ledger)
            hardened = run_adversary(schedule, hardened=True, ledger=hardened_ledger)
            assert report.bare[i].distinct_by_invariant() == bare.distinct_by_invariant()
            assert (
                report.hardened[i].distinct_by_invariant()
                == hardened.distinct_by_invariant()
            )
            bare_rows += _rows(bare_ledger)
            hardened_rows += _rows(hardened_ledger)
        assert _rows(report.bare_ledger) == bare_rows
        assert _rows(report.hardened_ledger) == hardened_rows


class TestCaseStudies:
    @pytest.mark.parametrize("case_id", sorted(CASE_RUNNERS))
    def test_fix_removes_symptom(self, case_id):
        outcome = run_case(case_id)
        assert outcome.buggy.symptom is not None, case_id
        assert outcome.fix_removes_symptom, (
            case_id,
            outcome.buggy,
            outcome.fixed,
        )

    def test_unknown_case_rejected(self):
        with pytest.raises(InjectionError):
            run_case("FAUCET-9999")

    def test_expected_symptoms_per_case(self):
        assert run_case("CORD-2470").buggy.symptom is Symptom.FAIL_STOP
        assert run_case("CORD-1734").buggy.symptom is Symptom.PERFORMANCE
        assert (
            run_case("VOL-549").buggy.byzantine_mode is ByzantineMode.STALL
        )
        assert (
            run_case("FAUCET-1623").buggy.byzantine_mode
            is ByzantineMode.GRAY_FAILURE
        )
        assert (
            run_case("FAUCET-355").buggy.byzantine_mode
            is ByzantineMode.GRAY_FAILURE
        )
