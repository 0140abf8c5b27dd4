"""Corpus profiles, generator calibration, dataset container, JSONL I/O."""

from __future__ import annotations

import pytest

from repro import paperdata
from repro.corpus import (
    BugDataset,
    CorpusGenerator,
    ResolutionTimeModel,
    default_profiles,
    load_dataset_jsonl,
    save_dataset_jsonl,
)
from repro.corpus.generator import STUDY_END, STUDY_START
from repro.errors import CorpusError
from repro.taxonomy import (
    RootCause,
    Symptom,
    Trigger,
)


class TestProfilesCalibration:
    """Analytic calibration checks — no sampling noise involved."""

    def test_three_controllers(self):
        assert set(default_profiles()) == {"FAUCET", "ONOS", "CORD"}

    def test_critical_counts_match_paper(self):
        for name, profile in default_profiles().items():
            assert profile.critical_bug_count == paperdata.CRITICAL_BUG_COUNTS[name]

    def test_determinism_targets_match_paper(self):
        for name, profile in default_profiles().items():
            marginal = profile.expected_root_cause_marginal()
            determinism = sum(
                p * profile.determinism_rate(cause) for cause, p in marginal.items()
            )
            assert determinism == pytest.approx(
                paperdata.DETERMINISM_RATE[name], abs=0.005
            )

    def test_memory_bugs_pinned_highly_deterministic(self):
        for profile in default_profiles().values():
            assert profile.determinism_rate(RootCause.MEMORY) > 0.99
            assert profile.determinism_rate(RootCause.CONCURRENCY) < 0.7

    def test_faucet_missing_logic_share(self):
        profile = default_profiles()["FAUCET"]
        marginal = profile.expected_root_cause_marginal()
        assert marginal[RootCause.MISSING_LOGIC] == pytest.approx(
            paperdata.FAUCET_MISSING_LOGIC_SHARE, abs=0.02
        )

    def test_load_bug_split_cord_vs_onos(self):
        profiles = default_profiles()
        cord = profiles["CORD"].expected_root_cause_marginal()[RootCause.LOAD]
        onos = profiles["ONOS"].expected_root_cause_marginal()[RootCause.LOAD]
        assert cord == pytest.approx(paperdata.LOAD_BUG_SHARE["CORD"], abs=0.02)
        assert onos == pytest.approx(paperdata.LOAD_BUG_SHARE["ONOS"], abs=0.02)

    def test_aggregate_symptom_marginals(self):
        profiles = default_profiles()
        total = sum(p.critical_bug_count for p in profiles.values())
        aggregate = {s: 0.0 for s in Symptom}
        for profile in profiles.values():
            weight = profile.critical_bug_count / total
            for cause, p_cause in profile.expected_root_cause_marginal().items():
                for symptom, share in profile.symptom_given_cause[cause].items():
                    aggregate[symptom] += weight * p_cause * share
        assert aggregate[Symptom.BYZANTINE] == pytest.approx(
            paperdata.SYMPTOM_SHARE["byzantine"], abs=0.03
        )
        assert aggregate[Symptom.FAIL_STOP] == pytest.approx(
            paperdata.SYMPTOM_SHARE["fail_stop"], abs=0.03
        )
        assert aggregate[Symptom.ERROR_MESSAGE] == pytest.approx(
            paperdata.SYMPTOM_SHARE["error_message"], abs=0.03
        )
        assert aggregate[Symptom.PERFORMANCE] == pytest.approx(
            paperdata.SYMPTOM_SHARE["performance"], abs=0.02
        )

    def test_aggregate_trigger_marginals(self):
        profiles = default_profiles()
        total = sum(p.critical_bug_count for p in profiles.values())
        aggregate = {t: 0.0 for t in Trigger}
        for profile in profiles.values():
            weight = profile.critical_bug_count / total
            for trigger, share in profile.trigger_dist.items():
                aggregate[trigger] += weight * share
        for trigger, target in (
            (Trigger.CONFIGURATION, 0.388),
            (Trigger.EXTERNAL_CALLS, 0.33),
            (Trigger.NETWORK_EVENTS, 0.198),
            (Trigger.HARDWARE_REBOOTS, 0.084),
        ):
            assert aggregate[trigger] == pytest.approx(target, abs=0.02)

    def test_config_subcategories_match_table_three(self):
        for name, profile in default_profiles().items():
            for sub, share in profile.config_subcategory_dist.items():
                expected = paperdata.CONFIG_SUBCATEGORY_SHARE[name][sub.value]
                assert share == pytest.approx(expected, abs=1e-9)

    def test_concurrency_fix_override(self):
        profile = default_profiles()["ONOS"]
        dist = profile.fix_distribution(Trigger.NETWORK_EVENTS, RootCause.CONCURRENCY)
        from repro.taxonomy import FixStrategy

        assert dist[FixStrategy.ADD_SYNCHRONIZATION] > 0.7
        assert sum(dist.values()) == pytest.approx(1.0)


class TestGenerator:
    def test_dataset_counts(self, corpus):
        assert corpus.dataset.split_counts() == dict(paperdata.CRITICAL_BUG_COUNTS)

    def test_trackers_populated(self, corpus):
        assert len(corpus.github) == paperdata.CRITICAL_BUG_COUNTS["FAUCET"]
        assert len(corpus.jira) == (
            paperdata.CRITICAL_BUG_COUNTS["ONOS"] + paperdata.CRITICAL_BUG_COUNTS["CORD"]
        )

    def test_manual_sample_is_fifty_closed_per_controller(self, corpus):
        counts = corpus.manual_sample.split_counts()
        assert counts == {"CORD": 50, "FAUCET": 50, "ONOS": 50}
        assert all(b.report.status.is_closed for b in corpus.manual_sample)

    def test_faucet_reports_have_no_severity_or_resolution(self, corpus):
        for bug in corpus.dataset.by_controller("FAUCET"):
            assert bug.report.severity is None
            assert bug.report.resolved_at is None

    def test_jira_reports_have_severity(self, corpus):
        for bug in corpus.dataset.by_controller("ONOS"):
            assert bug.report.severity is not None

    def test_closed_jira_bugs_have_gerrit_links(self, corpus):
        closed = [
            b
            for b in corpus.dataset.by_controller("CORD")
            if b.report.status.is_closed
        ]
        assert closed
        assert all(b.report.gerrit_changes for b in closed)

    def test_timestamps_inside_study_window(self, corpus):
        for bug in corpus.dataset:
            assert STUDY_START <= bug.report.created_at < STUDY_END

    def test_generation_is_deterministic(self):
        a = CorpusGenerator(seed=77).generate()
        b = CorpusGenerator(seed=77).generate()
        assert [x.report.description for x in a.dataset] == [
            x.report.description for x in b.dataset
        ]

    def test_different_seeds_differ(self):
        a = CorpusGenerator(seed=1).generate()
        b = CorpusGenerator(seed=2).generate()
        assert [x.report.description for x in a.dataset] != [
            x.report.description for x in b.dataset
        ]

    def test_sampled_determinism_close_to_target(self, dataset):
        from repro.analysis import determinism_rates

        rates = determinism_rates(dataset)
        for name, rate in rates.items():
            assert rate == pytest.approx(paperdata.DETERMINISM_RATE[name], abs=0.04)

    def test_release_bursts_visible(self, corpus):
        """Quarters containing a release date should be busier on average."""
        histogram = corpus.jira.quarterly_histogram(project="CORD")
        profile = corpus.profiles["CORD"]
        release_quarters = {
            f"{d.year}-Q{(d.month - 1) // 3 + 1}" for d in profile.release_dates
        }
        burst = [v for q, v in histogram.items() if q in release_quarters]
        quiet = [v for q, v in histogram.items() if q not in release_quarters]
        assert sum(burst) / len(burst) > sum(quiet) / len(quiet)


class TestBugDataset:
    def test_duplicate_ids_rejected(self, dataset):
        first = dataset[0]
        with pytest.raises(CorpusError, match="duplicate"):
            BugDataset([first, first])

    def test_filter_and_by_controller_compose(self, dataset):
        onos_failstop = dataset.by_controller("ONOS").filter(
            lambda b: b.label.symptom is Symptom.FAIL_STOP
        )
        assert all(
            b.controller == "ONOS" and b.label.symptom is Symptom.FAIL_STOP
            for b in onos_failstop
        )

    def test_labels_dimension_extraction(self, manual_sample):
        values = manual_sample.labels("trigger")
        assert len(values) == len(manual_sample)
        assert set(values) <= {t.value for t in Trigger}

    def test_labels_refinement_requires_filtering(self, dataset):
        with pytest.raises(CorpusError, match="filter"):
            dataset.labels("config_subcategory")

    def test_sample_without_replacement(self, dataset):
        sample = dataset.sample(10, seed=1)
        assert len(sample) == 10
        assert len({b.bug_id for b in sample}) == 10

    def test_sample_too_large(self):
        with pytest.raises(CorpusError):
            BugDataset([]).sample(1)


class TestResolutionModel:
    def test_config_has_longest_median(self):
        model = ResolutionTimeModel()
        # The lognormal median is exp(mu): the order of mu is the order of medians.
        mus = {t: model.parameters("ONOS", t)[0] for t in Trigger}
        assert mus[Trigger.CONFIGURATION] == max(mus.values())

    def test_onos_tail_longer_except_reboots(self):
        model = ResolutionTimeModel()
        # Equal mu, so the 95th-percentile order is the sigma order.
        for trigger in Trigger:
            onos_mu, onos = model.parameters("ONOS", trigger)
            cord_mu, cord = model.parameters("CORD", trigger)
            assert onos_mu == cord_mu
            if trigger is Trigger.HARDWARE_REBOOTS:
                assert cord > onos
            else:
                assert onos > cord

    def test_samples_positive(self):
        import random

        model = ResolutionTimeModel()
        rng = random.Random(0)
        for _ in range(100):
            assert model.sample_days("CORD", Trigger.NETWORK_EVENTS, rng) > 0


class TestJsonlIO:
    def test_roundtrip(self, dataset, tmp_path):
        subset = dataset.sample(20, seed=3)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        loaded = load_dataset_jsonl(path)
        assert len(loaded) == 20
        assert [b.bug_id for b in loaded] == [b.bug_id for b in subset]
        assert [b.label for b in loaded] == [b.label for b in subset]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"report": {}}\n')
        with pytest.raises(CorpusError, match="bad.jsonl:1"):
            load_dataset_jsonl(path)

    def test_null_fields_report_position(self, tmp_path):
        # A structurally wrong record (null where an object is expected)
        # must surface as a CorpusError with the line number, not a bare
        # TypeError from deep inside from_dict.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"report": null, "label": null}\n')
        with pytest.raises(CorpusError, match="bad.jsonl:1"):
            load_dataset_jsonl(path)

    def test_blank_lines_skipped(self, dataset, tmp_path):
        subset = dataset.sample(3, seed=4)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_dataset_jsonl(path)) == 3

    def test_truncated_final_line_reports_position(self, dataset, tmp_path):
        # An interrupted writer leaves a half-serialized last record; that
        # must surface as a CorpusError naming the line, not a JSONDecodeError.
        subset = dataset.sample(3, seed=5)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with pytest.raises(CorpusError, match="bugs.jsonl:3"):
            load_dataset_jsonl(path)

    def test_bom_prefixed_file_loads(self, dataset, tmp_path):
        subset = dataset.sample(4, seed=6)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_dataset_jsonl(path)
        assert [b.bug_id for b in loaded] == [b.bug_id for b in subset]

    def test_bom_plus_malformed_line_still_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"report": {}}\n')
        with pytest.raises(CorpusError, match="bad.jsonl:1"):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize("size", [0, 1, 2, 7])
    def test_roundtrip_preserves_order(self, dataset, tmp_path, size):
        # Reversed, so a writer or reader that sorted by id would show.
        subset = BugDataset(list(reversed(list(dataset.sample(size, seed=7)))))
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        loaded = load_dataset_jsonl(path)
        assert [b.bug_id for b in loaded] == [b.bug_id for b in subset]

    def test_roundtrip_preserves_every_report_field(self, dataset, tmp_path):
        subset = dataset.sample(5, seed=12)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        loaded = load_dataset_jsonl(path)
        assert [b.report.to_dict() for b in loaded] == [
            b.report.to_dict() for b in subset
        ]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_dataset_jsonl(tmp_path / "absent.jsonl")

    def test_save_replaces_a_larger_file(self, dataset, tmp_path):
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(dataset.sample(9, seed=13), path)
        smaller = dataset.sample(2, seed=14)
        save_dataset_jsonl(smaller, path)
        assert [b.bug_id for b in load_dataset_jsonl(path)] == [
            b.bug_id for b in smaller
        ]


class _InterruptedIteration:
    """A dataset stand-in whose iteration dies mid-write (disk full, kill)."""

    def __init__(self, bugs, explode_after):
        self._bugs = list(bugs)
        self._explode_after = explode_after

    def __iter__(self):
        for index, bug in enumerate(self._bugs):
            if index >= self._explode_after:
                raise RuntimeError("interrupted mid-write")
            yield bug


class TestAtomicWrites:
    """Interrupted saves must leave the previous file intact, never a prefix."""

    def test_interrupted_save_preserves_previous_dataset(self, dataset, tmp_path):
        subset = dataset.sample(5, seed=7)
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(subset, path)
        before = path.read_bytes()

        bigger = dataset.sample(10, seed=8)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_dataset_jsonl(_InterruptedIteration(bigger, 3), path)

        assert path.read_bytes() == before
        loaded = load_dataset_jsonl(path)
        assert [b.bug_id for b in loaded] == [b.bug_id for b in subset]

    def test_interrupted_save_leaves_no_tmp_litter(self, dataset, tmp_path):
        path = tmp_path / "bugs.jsonl"
        with pytest.raises(RuntimeError):
            save_dataset_jsonl(
                _InterruptedIteration(dataset.sample(4, seed=9), 1), path
            )
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_no_tmp_sibling(self, dataset, tmp_path):
        path = tmp_path / "bugs.jsonl"
        save_dataset_jsonl(dataset.sample(3, seed=10), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bugs.jsonl"]
