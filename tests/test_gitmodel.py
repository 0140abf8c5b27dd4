"""Commit history, burn analysis, and dependency burn-down."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.errors import ReproError
from repro.gitmodel import (
    Commit,
    CommitHistory,
    DependencyBurndown,
    FaucetHistoryGenerator,
    RequirementsFile,
    Subsystem,
    burn_distribution,
    classify_commit,
    onos_commits_per_release,
)
from repro.paperdata import (
    FAUCET_COMMIT_SHARE,
    FAUCET_DEPENDENCY_BURNDOWN,
    ONOS_RELEASES,
)

T0 = datetime(2018, 1, 1)


def commit(sha, files, message="change", days=0):
    return Commit(
        sha=sha,
        author="dev",
        date=T0 + timedelta(days=days),
        message=message,
        files=tuple(files),
    )


class TestCommitHistory:
    def test_sorted_by_date(self):
        history = CommitHistory(
            [commit("b", ["x"], days=5), commit("a", ["x"], days=1)]
        )
        assert [c.sha for c in history] == ["a", "b"]

    def test_duplicate_shas_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CommitHistory([commit("a", ["x"]), commit("a", ["y"])])

    def test_filter_by_date_window(self):
        history = CommitHistory([commit(str(i), ["x"], days=i) for i in range(10)])
        start, end = T0 + timedelta(days=2), T0 + timedelta(days=5)
        window = history.filter(lambda c: start <= c.date < end)
        assert [c.sha for c in window] == ["2", "3", "4"]
        assert len(history) == 10

    def test_touching_prefix(self):
        history = CommitHistory(
            [commit("a", ["faucet/valve.py"]), commit("b", ["docs/readme.md"])]
        )
        assert [c.sha for c in history if c.touches("faucet/")] == ["a"]


class TestBurnClassifier:
    def test_path_rules(self):
        assert classify_commit(commit("a", ["faucet/valve.py"])) is (
            Subsystem.NETWORK_FUNCTIONALITY
        )
        assert classify_commit(commit("b", ["faucet/config_parser.py"])) is (
            Subsystem.CONFIGURATION
        )
        assert classify_commit(commit("c", ["requirements.txt"])) is (
            Subsystem.EXTERNAL_ABSTRACTION
        )

    def test_keyword_fallback(self):
        c = commit("a", ["somewhere/else.py"], message="bump ryu dependency")
        assert classify_commit(c) is Subsystem.EXTERNAL_ABSTRACTION

    def test_unclassifiable_returns_none(self):
        assert classify_commit(commit("a", ["misc.py"], message="tidy")) is None

    def test_burn_distribution_requires_classifiable(self):
        with pytest.raises(ValueError):
            burn_distribution(CommitHistory([commit("a", ["misc.py"], "tidy")]))


class TestFaucetGenerator:
    def test_burn_shares_match_fig11(self):
        history = FaucetHistoryGenerator(n_commits=4000, seed=1).generate()
        dist = burn_distribution(history)
        assert dist[Subsystem.CONFIGURATION] == pytest.approx(
            FAUCET_COMMIT_SHARE["configuration"], abs=0.03
        )
        assert dist[Subsystem.NETWORK_FUNCTIONALITY] == pytest.approx(
            FAUCET_COMMIT_SHARE["network_functionality"], abs=0.03
        )
        assert dist[Subsystem.EXTERNAL_ABSTRACTION] == pytest.approx(
            FAUCET_COMMIT_SHARE["external_abstraction"], abs=0.03
        )

    def test_deterministic(self):
        a = FaucetHistoryGenerator(seed=9).generate()
        b = FaucetHistoryGenerator(seed=9).generate()
        assert [c.sha for c in a] == [c.sha for c in b]

    def test_requirements_history_matches_table_four(self):
        snapshots = FaucetHistoryGenerator(seed=2).generate_requirements_history()
        burndown = DependencyBurndown(snapshots)
        changes = burndown.version_changes()
        for package, (expected, _desc) in FAUCET_DEPENDENCY_BURNDOWN.items():
            assert changes[package] == expected, package

    def test_ranked_order(self):
        snapshots = FaucetHistoryGenerator(seed=2).generate_requirements_history()
        ranked = DependencyBurndown(snapshots).ranked()
        assert ranked[0][0] == "ryu"
        assert ranked[1][0] == "chewie"

    def test_release_cycle_for_churned_dependency(self):
        snapshots = FaucetHistoryGenerator(seed=2).generate_requirements_history()
        burndown = DependencyBurndown(snapshots)
        assert burndown.release_cycle_days("ryu") is not None
        assert burndown.release_cycle_days("ryu") < 200
        # A single-change dependency has no cycle.
        assert burndown.release_cycle_days("pbr") is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FaucetHistoryGenerator(n_commits=0)
        with pytest.raises(ReproError):
            DependencyBurndown([])


class TestDependencyBurndown:
    def test_counts_only_changes(self):
        snapshots = [
            RequirementsFile(T0, {"a": "1.0"}),
            RequirementsFile(T0 + timedelta(days=1), {"a": "1.0"}),
            RequirementsFile(T0 + timedelta(days=2), {"a": "1.1"}),
            RequirementsFile(T0 + timedelta(days=3), {"a": "1.1", "b": "0.1"}),
        ]
        changes = DependencyBurndown(snapshots).version_changes()
        assert changes == {"a": 1, "b": 0}

    def test_readdition_at_new_version_not_counted_as_change(self):
        snapshots = [
            RequirementsFile(T0, {"a": "1.0"}),
            RequirementsFile(T0 + timedelta(days=1), {}),
            RequirementsFile(T0 + timedelta(days=2), {"a": "2.0"}),
        ]
        # removal then re-addition: previous snapshot lacks the key, so the
        # re-addition is an addition, not a version change.
        assert DependencyBurndown(snapshots).version_changes()["a"] == 0


def test_onos_commits_decline_after_prototyping():
    counts = onos_commits_per_release()
    assert tuple(counts) == ONOS_RELEASES
    values = list(counts.values())
    peak = max(range(len(values)), key=values.__getitem__)
    assert ONOS_RELEASES[peak] == "1.14"
    assert values[peak:] == sorted(values[peak:], reverse=True)
