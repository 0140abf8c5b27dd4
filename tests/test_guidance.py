"""Controller-selection guidance and the diagnosis assistant."""

from __future__ import annotations

import pytest

from repro.guidance import UseCase, rank_controllers, score_controller
from repro.guidance.diagnosis import DiagnosisAssistant
from repro.paperdata import CONTROLLER_RECOMMENDATION


class TestSelection:
    def test_scores_bounded(self, dataset):
        for controller in dataset.controllers:
            score = score_controller(dataset, controller)
            for value in (
                score.missing_logic_share,
                score.load_share,
                score.fail_stop_share,
                score.performance_share,
            ):
                assert 0.0 <= value <= 1.0

    def test_faucet_missing_logic_highest(self, dataset):
        scores = {c: score_controller(dataset, c) for c in dataset.controllers}
        assert scores["FAUCET"].missing_logic_share == max(
            s.missing_logic_share for s in scores.values()
        )

    def test_cord_load_exceeds_onos(self, dataset):
        cord = score_controller(dataset, "CORD")
        onos = score_controller(dataset, "ONOS")
        assert cord.load_share > onos.load_share

    def test_general_purpose_ranking_matches_paper(self, dataset):
        ranking = [s.controller for s in rank_controllers(dataset)]
        assert ranking[0] == CONTROLLER_RECOMMENDATION[0] == "ONOS"

    def test_slicing_use_case_prefers_faucet(self, dataset):
        ranking = [
            s.controller
            for s in rank_controllers(dataset, use_case=UseCase.NETWORK_SLICING)
        ]
        assert ranking[0] == "FAUCET"

    def test_telco_use_case_boosts_cord(self, dataset):
        general = [s.controller for s in rank_controllers(dataset)]
        telco = [
            s.controller
            for s in rank_controllers(dataset, use_case=UseCase.TELCO_CENTRAL_OFFICE)
        ]
        assert telco.index("CORD") <= general.index("CORD")

    def test_unknown_controller_rejected(self, dataset):
        with pytest.raises(ValueError):
            score_controller(dataset, "POX")


class TestDiagnosis:
    @pytest.fixture(scope="class")
    def assistant(self, manual_sample):
        return DiagnosisAssistant(seed=0).fit(manual_sample)

    def test_diagnose_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DiagnosisAssistant().diagnose("anything")

    def test_diagnose_returns_ranked_suggestions(self, assistant):
        suggestions = assistant.diagnose(
            "the controller crashed with a fatal traceback after editing the "
            "faucet.yaml and reloading, reproducible every time"
        )
        assert suggestions
        confidences = [s.confidence for s in suggestions]
        assert confidences == sorted(confidences, reverse=True)
        dims = {s.dimension for s in suggestions}
        assert {"symptom", "trigger", "bug_type"} <= dims

    def test_crash_description_diagnosed_as_fail_stop(self, assistant):
        suggestions = assistant.diagnose(
            "the whole controller exits immediately taking the control plane "
            "down, core dumps until manual restart, reproducible every time "
            "after reloading the controller yaml config"
        )
        symptom = next(s for s in suggestions if s.dimension == "symptom")
        assert symptom.tag == "fail_stop"

    def test_correlation_rules_propagate(self, assistant):
        """A concurrency-flavoured text should pull in correlated tags from
        dimensions the text model does not cover directly."""
        suggestions = assistant.diagnose(
            "two interleaved threads race on the shared map without the lock, "
            "the api stops responding temporarily, happens intermittently and "
            "cannot be reproduced"
        )
        rationales = [s.rationale for s in suggestions]
        assert any("correlated with" in r for r in rationales)
