"""Analyses: determinism, symptoms, triggers, resolution, correlation, topics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paperdata
from repro.analysis import (
    byzantine_mode_distribution,
    config_fixed_by_config_share,
    config_subcategory_distribution,
    correlation_cdf,
    determinism_rates,
    external_compatibility_fix_share,
    fine_trigger_distribution,
    pairwise_correlations,
    resolution_cdfs,
    root_cause_by_symptom,
    symptom_distribution,
    topic_uniqueness,
    trigger_distribution,
)
from repro.analysis.correlation import strongly_correlated_pairs
from repro.analysis.resolution import EmpiricalCDF, tail_comparison
from repro.analysis.symptoms import (
    controller_logic_share_of_symptom,
    cross_domain_table,
)
from repro.corpus import BugDataset
from repro.taxonomy import RootCause, Symptom, Trigger


class TestDeterminism:
    def test_rates_per_controller(self, dataset):
        rates = determinism_rates(dataset)
        assert set(rates) == {"CORD", "FAUCET", "ONOS"}
        for name, rate in rates.items():
            assert rate == pytest.approx(paperdata.DETERMINISM_RATE[name], abs=0.04)

    def test_every_controller_dominated_by_deterministic(self, dataset):
        rates = determinism_rates(dataset)
        assert set(rates) == {"CORD", "FAUCET", "ONOS"}
        assert all(rate > 0.9 for rate in rates.values())

    def test_empty_dataset_has_no_rates(self):
        assert determinism_rates(BugDataset([])) == {}


class TestSymptoms:
    def test_distribution_sums_to_one(self, dataset):
        dist = symptom_distribution(dataset)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_byzantine_dominates(self, dataset):
        dist = symptom_distribution(dataset)
        assert dist[Symptom.BYZANTINE] == max(dist.values())
        assert dist[Symptom.BYZANTINE] == pytest.approx(0.6133, abs=0.05)

    def test_byzantine_modes_match_paper(self, dataset):
        modes = byzantine_mode_distribution(dataset)
        for mode, share in modes.items():
            assert share == pytest.approx(
                paperdata.BYZANTINE_MODE_SHARE[mode.value], abs=0.05
            )

    def test_fig2_failstop_contrast(self, dataset):
        """FAUCET fail-stop comes from human/ecosystem causes; ONOS and CORD
        from controller logic (Fig 2)."""
        shares = controller_logic_share_of_symptom(dataset, Symptom.FAIL_STOP)
        assert shares["ONOS"] > shares["FAUCET"]
        assert shares["CORD"] > shares["FAUCET"]

    def test_root_cause_by_symptom_shares_sum(self, dataset):
        result = root_cause_by_symptom(dataset, Symptom.BYZANTINE)
        for dist in result.values():
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_performance_root_causes_differ_by_controller(self, dataset):
        """Fig 2: FAUCET perf bugs from ecosystem, ONOS from concurrency,
        CORD from memory."""
        result = root_cause_by_symptom(dataset, Symptom.PERFORMANCE)
        faucet_eco = sum(
            s for c, s in result.get("FAUCET", {}).items() if c.is_ecosystem
        )
        assert faucet_eco >= 0.4
        assert result["CORD"].get(RootCause.MEMORY, 0) > 0.1

    def test_cross_domain_table_rows(self, manual_sample):
        table = cross_domain_table(manual_sample)
        assert set(table) == {"fail_stop", "performance", "error_message", "byzantine"}
        assert table["performance"]["BGP"] is None
        assert table["fail_stop"]["Cloud"] == 0.59
        # SDN measured fail-stop is far below the Cloud comparison value.
        assert table["fail_stop"]["SDN (measured)"] < 0.35


class TestTriggers:
    def test_distribution_matches_paper(self, dataset):
        dist = trigger_distribution(dataset)
        assert dist[Trigger.CONFIGURATION] == pytest.approx(0.388, abs=0.04)
        assert dist[Trigger.EXTERNAL_CALLS] == pytest.approx(0.33, abs=0.04)
        assert dist[Trigger.NETWORK_EVENTS] == pytest.approx(0.198, abs=0.04)
        assert dist[Trigger.HARDWARE_REBOOTS] == pytest.approx(0.084, abs=0.03)

    def test_configuration_is_top_trigger(self, dataset):
        dist = trigger_distribution(dataset)
        assert dist[Trigger.CONFIGURATION] == max(dist.values())

    def test_config_subcategories_match_table_three(self, dataset):
        result = config_subcategory_distribution(dataset)
        for controller, expected in paperdata.CONFIG_SUBCATEGORY_SHARE.items():
            for sub, dist_share in result[controller].items():
                assert dist_share == pytest.approx(expected[sub.value], abs=0.09)

    def test_config_fixed_by_config_near_quarter(self, dataset):
        assert config_fixed_by_config_share(dataset) == pytest.approx(0.25, abs=0.05)

    def test_external_compatibility_share(self, dataset):
        assert external_compatibility_fix_share(dataset) == pytest.approx(
            0.414, abs=0.06
        )

    def test_fine_distribution_sums_to_one(self, dataset):
        dist = fine_trigger_distribution(dataset)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["configuration"] == max(dist.values())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            trigger_distribution(BugDataset([]))


class TestEmpiricalCDF:
    def test_monotone_nondecreasing(self):
        cdf = EmpiricalCDF.from_samples([3.0, 1.0, 2.0, 2.0])
        values = [cdf.cdf(x) for x in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_quantiles(self):
        cdf = EmpiricalCDF.from_samples(list(range(1, 11)))
        assert cdf.median == 5
        assert cdf.p90 == 9
        assert cdf.max == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([])

    @given(st.lists(st.floats(0.1, 1e4), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_quantile_is_inverse_of_cdf(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        for q in (0.1, 0.5, 0.9, 1.0):
            value = cdf.quantile(q)
            assert cdf.cdf(value) >= q - 1e-9

    def test_series_is_monotone(self):
        cdf = EmpiricalCDF.from_samples([1.0, 5.0, 20.0, 100.0])
        series = cdf.series(points=10)
        probs = [p for _, p in series]
        assert probs == sorted(probs)


class TestResolutionAnalysis:
    def test_faucet_absent(self, dataset):
        cdfs = resolution_cdfs(dataset)
        assert "FAUCET" not in cdfs
        assert {"ONOS", "CORD"} <= set(cdfs)

    def test_config_tail_longest(self, dataset):
        cdfs = resolution_cdfs(dataset)
        for controller in ("ONOS", "CORD"):
            per = cdfs[controller]
            assert per[Trigger.CONFIGURATION].p90 == max(
                cdf.p90 for cdf in per.values()
            )

    def test_onos_vs_cord_tails(self, dataset):
        tails = tail_comparison(dataset, quantile=0.9)
        assert tails[Trigger.CONFIGURATION]["ONOS"] > tails[Trigger.CONFIGURATION]["CORD"]
        assert (
            tails[Trigger.HARDWARE_REBOOTS]["CORD"]
            > tails[Trigger.HARDWARE_REBOOTS]["ONOS"]
        )


class TestCorrelation:
    def test_phi_bounded(self, manual_sample):
        for corr in pairwise_correlations(manual_sample):
            assert -1.0 <= corr.phi <= 1.0

    def test_cdf_over_pairs(self, manual_sample):
        cdf = correlation_cdf(manual_sample)
        assert len(cdf) > 100  # many category pairs
        assert cdf.cdf(1.0) == 1.0

    def test_known_strong_pairs_surface(self, dataset):
        strong = strongly_correlated_pairs(dataset, threshold=0.3)
        described = {(c.tag_a, c.tag_b) for c in strong} | {
            (c.tag_b, c.tag_a) for c in strong
        }
        assert ("concurrency", "add_synchronization") in described

    def test_long_tail_is_minority(self, dataset):
        from repro.analysis.correlation import strongly_correlated_share

        share = strongly_correlated_share(dataset, threshold=0.3)
        assert 0.0 < share < 0.2


class TestTopics:
    def test_byzantine_topics_fairly_unique(self, manual_sample):
        result = topic_uniqueness(manual_sample, "symptom", "byzantine")
        assert result.unique_share > 0.2
        assert result.top_terms

    def test_unknown_tag_rejected(self, manual_sample):
        with pytest.raises(ValueError, match="no bugs carry"):
            topic_uniqueness(manual_sample, "symptom", "nonexistent")

    def test_uniqueness_ranking_sorted(self, manual_sample):
        from repro.analysis.topics import uniqueness_ranking

        ranking = uniqueness_ranking(
            manual_sample,
            [("bug_type", "deterministic"), ("symptom", "byzantine")],
        )
        shares = [r.unique_share for r in ranking]
        assert shares == sorted(shares, reverse=True)
