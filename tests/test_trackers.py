"""JIRA/GitHub tracker substrates and the severity keyword extractor."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.errors import TrackerError
from repro.trackers import (
    BugReport,
    GerritChange,
    GithubTracker,
    IssueStatus,
    JiraTracker,
    KeywordSeverityExtractor,
    Severity,
)

T0 = datetime(2019, 1, 1)


def make_report(bug_id="ONOS-1", severity=Severity.CRITICAL, **kw) -> BugReport:
    defaults = dict(
        bug_id=bug_id,
        controller="ONOS",
        title="controller crashes on reload",
        description="the controller crashed with a traceback after config reload",
        created_at=T0,
        severity=severity,
    )
    defaults.update(kw)
    return BugReport(**defaults)


class TestBugReport:
    def test_text_combines_title_and_description(self):
        report = make_report()
        assert "crashes" in report.text and "traceback" in report.text

    def test_resolution_days(self):
        report = make_report(resolved_at=T0 + timedelta(days=3, hours=12))
        assert report.resolution_days == pytest.approx(3.5)

    def test_unresolved_has_no_resolution(self):
        assert make_report().resolution_days is None

    def test_dict_roundtrip(self):
        report = make_report(
            resolved_at=T0 + timedelta(days=1),
            components=("intent",),
            gerrit_changes=[
                GerritChange(
                    change_id="I1234",
                    subject="Fix it",
                    merged_at=T0 + timedelta(days=1),
                    files_changed=("a.java",),
                    insertions=10,
                    deletions=2,
                )
            ],
        )
        clone = BugReport.from_dict(report.to_dict())
        assert clone.bug_id == report.bug_id
        assert clone.resolved_at == report.resolved_at
        assert clone.gerrit_changes[0].change_id == "I1234"
        assert clone.gerrit_changes[0].merged_at == T0 + timedelta(days=1)


class TestJiraTracker:
    def test_file_assigns_sequential_keys(self):
        jira = JiraTracker(["ONOS"])
        a = jira.file("ONOS", title="t", description="d", created_at=T0,
                      severity=Severity.CRITICAL)
        b = jira.file("ONOS", title="t2", description="d2", created_at=T0,
                      severity=Severity.MAJOR)
        assert (a.bug_id, b.bug_id) == ("ONOS-1", "ONOS-2")

    def test_unknown_project_rejected(self):
        jira = JiraTracker(["ONOS"])
        with pytest.raises(TrackerError, match="unknown project"):
            jira.file("CORD", title="t", description="d", created_at=T0,
                      severity=Severity.CRITICAL)

    def test_add_requires_severity(self):
        jira = JiraTracker(["ONOS"])
        with pytest.raises(TrackerError, match="severity"):
            jira.add(make_report(severity=None))

    def test_add_rejects_duplicates(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report())
        with pytest.raises(TrackerError, match="duplicate"):
            jira.add(make_report())

    def test_resolve_sets_status_and_timestamp(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report())
        jira.resolve("ONOS-1", T0 + timedelta(days=2))
        report = jira.get("ONOS-1")
        assert report.status is IssueStatus.CLOSED
        assert report.resolution_days == pytest.approx(2.0)

    def test_resolve_before_creation_rejected(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report())
        with pytest.raises(TrackerError, match="precedes creation"):
            jira.resolve("ONOS-1", T0 - timedelta(days=1))

    def test_critical_bugs_filter(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report("ONOS-1", Severity.BLOCKER))
        jira.add(make_report("ONOS-2", Severity.CRITICAL))
        jira.add(make_report("ONOS-3", Severity.MAJOR))
        critical = jira.search(min_severity=Severity.CRITICAL)
        assert {r.bug_id for r in critical} == {"ONOS-1", "ONOS-2"}

    def test_quarterly_histogram(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report("ONOS-1", created_at=datetime(2017, 2, 1)))
        jira.add(make_report("ONOS-2", created_at=datetime(2017, 3, 1)))
        jira.add(make_report("ONOS-3", created_at=datetime(2017, 8, 1)))
        assert jira.quarterly_histogram() == {"2017-Q1": 2, "2017-Q3": 1}

    def test_multi_project(self):
        jira = JiraTracker(["ONOS", "CORD"])
        jira.add(make_report("CORD-1", controller="CORD"))
        jira.add(make_report("ONOS-1"))
        assert len(jira.search(project="CORD")) == 1

    def test_gerrit_link(self):
        jira = JiraTracker(["ONOS"])
        jira.add(make_report())
        change = GerritChange(change_id="Iabc", subject="fix", merged_at=None)
        jira.link_gerrit("ONOS-1", change)
        assert jira.get("ONOS-1").gerrit_changes == [change]


class TestGithubTracker:
    def test_add_rejects_severity(self):
        gh = GithubTracker("FAUCET")
        with pytest.raises(TrackerError, match="no structured severity"):
            gh.add(make_report("FAUCET-1", Severity.CRITICAL, controller="FAUCET"))

    def test_add_rejects_resolution_timestamp(self):
        gh = GithubTracker("FAUCET")
        report = make_report(
            "FAUCET-1", None, controller="FAUCET",
            resolved_at=T0 + timedelta(days=1),
        )
        with pytest.raises(TrackerError, match="resolution timestamps"):
            gh.add(report)


class TestSeverityExtractor:
    @pytest.mark.parametrize("score, severity", [
        (5.0, Severity.BLOCKER), (2.5, Severity.CRITICAL), (2.4, Severity.MAJOR),
        (1.0, Severity.MAJOR), (0.0, Severity.MINOR), (-0.5, Severity.TRIVIAL),
    ])
    def test_score_floors(self, monkeypatch, score, severity):
        extractor = KeywordSeverityExtractor()
        monkeypatch.setattr(extractor, "score", lambda report: score)
        assert extractor.extract(make_report(severity=None)) is severity

    def test_crash_text_is_critical(self):
        extractor = KeywordSeverityExtractor()
        report = make_report(
            severity=None,
            title="daemon crash on malformed packet",
            description="segfault and data loss, controller totally unusable",
        )
        assert extractor.extract(report) is Severity.BLOCKER

    def test_mild_text_is_not_critical(self):
        extractor = KeywordSeverityExtractor()
        report = make_report(
            severity=None,
            title="typo in documentation",
            description="a cosmetic issue in the docs page",
        )
        assert not extractor.is_critical(report)

    def test_label_override_wins(self):
        extractor = KeywordSeverityExtractor()
        report = make_report(severity=None, title="small thing",
                             description="minor", labels=("p0",))
        assert extractor.extract(report) is Severity.BLOCKER

    def test_keywords_count_once(self):
        extractor = KeywordSeverityExtractor()
        single = make_report(severity=None, title="x", description="hang")
        repeated = make_report(
            severity=None, title="x", description="hang hang hang hang"
        )
        assert extractor.score(single) == extractor.score(repeated)

    def test_word_boundaries_respected(self):
        extractor = KeywordSeverityExtractor()
        report = make_report(
            severity=None, title="x", description="the dosage changed"
        )
        # "dos" must not match inside "dosage".
        assert extractor.score(report) == 0.0
