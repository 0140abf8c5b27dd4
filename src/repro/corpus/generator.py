"""The corpus generator: synthesizes the full study population.

Produces, for a fixed seed:

  * a JIRA tracker hosting ONOS + CORD with severities, timestamps,
    resolution times, and Gerrit fix links;
  * a GitHub tracker hosting FAUCET (no severity field, no resolution
    timestamps — exactly the information asymmetry the paper faced);
  * ground-truth :class:`~repro.taxonomy.BugLabel` for every bug (hidden
    from the NLP pipeline, used to score it);
  * the paper's manual-analysis sample (50 closed bugs per controller) as a
    :class:`~repro.taxonomy.LabelStore`.

Creation timestamps follow a mixture of uniform arrivals and bursts in the
weeks after each release date (SS II-B: "a burst of bugs occurs around
release dates").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Mapping

from repro.corpus.dataset import BugDataset, LabeledBug
from repro.corpus.profiles import ControllerProfile, default_profiles
from repro.corpus.resolution import ResolutionTimeModel
from repro.corpus.templates import render_description
from repro.taxonomy import (
    BugLabel,
    BugType,
    FixStrategy,
    LabelStore,
    Symptom,
    Trigger,
)
from repro.trackers.github import GithubTracker
from repro.trackers.jira import JiraTracker
from repro.trackers.models import (
    BugReport,
    GerritChange,
    IssueStatus,
    Severity,
)

#: Observation window of the study (bugs filed up to April 2020).
STUDY_START = datetime(2015, 6, 1)
STUDY_END = datetime(2020, 4, 1)

#: Fraction of bugs whose creation clusters after a release.
_BURST_FRACTION = 0.35
#: Burst window length after a release.
_BURST_DAYS = 45.0

#: Fraction of critical bugs closed by the snapshot date (most are).
_CLOSED_FRACTION = 0.87


@dataclass
class StudyCorpus:
    """Everything the study mines, bundled."""

    jira: JiraTracker
    github: GithubTracker
    dataset: BugDataset
    manual_sample: BugDataset
    manual_labels: LabelStore
    profiles: Mapping[str, ControllerProfile]


#: Per-fix-strategy patch shapes (SS II-C1: "to verify the fixes, we
#: manually analyzed the source code patches").  Fix strategies leave a
#: legible footprint in patch metadata even though bug *descriptions* do
#: not predict them: which files a change touches, its subject wording, and
#: its insertion/deletion balance all correlate with the strategy.
_GERRIT_SHAPES: dict[FixStrategy, dict] = {
    FixStrategy.ROLLBACK_UPGRADES: {
        "files": ("pom.xml", "requirements.txt", "deps/versions.lock"),
        "subjects": ("Revert dependency bump for", "Roll back library update for"),
        "insertions": (1, 20),
        "deletions": (10, 60),
    },
    FixStrategy.UPGRADE_PACKAGES: {
        "files": ("pom.xml", "requirements.txt", "deps/versions.lock"),
        "subjects": ("Bump dependency for", "Upgrade library to fix"),
        "insertions": (1, 15),
        "deletions": (1, 15),
    },
    FixStrategy.ADD_LOGIC: {
        "files": ("src/handler.java", "src/manager.java", "src/store.java"),
        "subjects": ("Add handling for", "Handle edge case in"),
        "insertions": (60, 400),
        "deletions": (0, 40),
    },
    FixStrategy.ADD_SYNCHRONIZATION: {
        "files": ("src/handler.java", "src/worker.java"),
        "subjects": ("Add locking around", "Synchronize access for"),
        "insertions": (15, 90),
        "deletions": (5, 50),
    },
    FixStrategy.FIX_CONFIGURATION: {
        "files": ("conf/network-cfg.json", "conf/cluster.yaml", "etc/defaults.yaml"),
        "subjects": ("Correct configuration for", "Fix default config value in"),
        "insertions": (1, 25),
        "deletions": (1, 25),
    },
    FixStrategy.ADD_COMPATIBILITY: {
        "files": ("src/adapter.java", "requirements.txt", "src/client.java"),
        "subjects": ("Adapt to new API of", "Match upstream signature for"),
        "insertions": (20, 150),
        "deletions": (15, 120),
    },
    FixStrategy.WORKAROUND: {
        "files": ("src/handler.java", "src/manager.java"),
        "subjects": ("Work around", "Guard against"),
        "insertions": (5, 40),
        "deletions": (0, 15),
    },
}


def _render_gerrit(
    label: BugLabel,
    bug_id: str,
    title: str,
    resolved_at: datetime,
    rng: random.Random,
) -> GerritChange:
    """A Gerrit change whose metadata reflects the fix strategy."""
    shape = _GERRIT_SHAPES[label.fix]
    n_files = rng.randint(1, min(3, len(shape["files"])))
    files = tuple(rng.sample(list(shape["files"]), n_files))
    subject = f"{rng.choice(shape['subjects'])} {bug_id}: {title[:40]}"
    return GerritChange(
        change_id=f"I{rng.getrandbits(40):010x}",
        subject=subject,
        merged_at=resolved_at,
        files_changed=files,
        insertions=rng.randint(*shape["insertions"]),
        deletions=rng.randint(*shape["deletions"]),
    )


def _weighted_choice(rng: random.Random, dist: Mapping) -> object:
    """Sample a key of ``dist`` proportionally to its value."""
    items = sorted(dist.items(), key=lambda kv: getattr(kv[0], "value", str(kv[0])))
    r = rng.random() * sum(p for _, p in items)
    acc = 0.0
    for key, p in items:
        acc += p
        if r <= acc:
            return key
    return items[-1][0]


class CorpusGenerator:
    """Seeded generator for the full study corpus."""

    def __init__(self, *, seed: int = 2020) -> None:
        self.profiles = default_profiles()
        self.resolution_model = ResolutionTimeModel()
        self.seed = seed

    # -- label sampling ------------------------------------------------------
    def sample_label(self, profile: ControllerProfile, rng: random.Random) -> BugLabel:
        """Draw one ground-truth label from the profile's generative chain."""
        trigger = _weighted_choice(rng, profile.trigger_dist)
        root_cause = _weighted_choice(rng, profile.root_cause_given_trigger[trigger])
        symptom = _weighted_choice(rng, profile.symptom_given_cause[root_cause])
        byzantine_mode = None
        if symptom is Symptom.BYZANTINE:
            byzantine_mode = _weighted_choice(rng, profile.byzantine_mode_dist)
        fix = _weighted_choice(rng, profile.fix_distribution(trigger, root_cause))
        deterministic = rng.random() < profile.determinism_rate(root_cause)
        config_subcategory = None
        if trigger is Trigger.CONFIGURATION:
            config_subcategory = _weighted_choice(rng, profile.config_subcategory_dist)
        external_kind = None
        if trigger is Trigger.EXTERNAL_CALLS:
            external_kind = _weighted_choice(rng, profile.external_kind_dist)
        return BugLabel(
            bug_type=BugType.DETERMINISTIC if deterministic else BugType.NON_DETERMINISTIC,
            root_cause=root_cause,
            symptom=symptom,
            fix=fix,
            trigger=trigger,
            byzantine_mode=byzantine_mode,
            config_subcategory=config_subcategory,
            external_kind=external_kind,
        )

    # -- timestamp sampling ----------------------------------------------------
    def _sample_created_at(
        self, profile: ControllerProfile, rng: random.Random
    ) -> datetime:
        window = (STUDY_END - STUDY_START).total_seconds()
        if profile.release_dates and rng.random() < _BURST_FRACTION:
            release = rng.choice(profile.release_dates)
            offset = timedelta(days=rng.expovariate(1.0 / (_BURST_DAYS / 3.0)))
            candidate = release + offset
            if STUDY_START <= candidate < STUDY_END:
                return candidate
        return STUDY_START + timedelta(seconds=rng.random() * window)

    # -- full corpus -----------------------------------------------------------
    def generate(self) -> StudyCorpus:
        """Generate trackers + dataset + manual sample for the configured seed."""
        rng = random.Random(self.seed)
        # Gerrit patch synthesis draws from its own stream so that adding or
        # reshaping patch metadata never perturbs the label/timestamp draws
        # (which are calibrated and regression-tested).
        gerrit_rng = random.Random(self.seed ^ 0x5EED)
        jira_projects = [
            name for name in self.profiles if name.upper() not in ("FAUCET",)
        ]
        jira = JiraTracker(jira_projects or ["ONOS"])
        github = GithubTracker("FAUCET")
        labeled: list[LabeledBug] = []

        for name in sorted(self.profiles):
            profile = self.profiles[name]
            for index in range(1, profile.critical_bug_count + 1):
                label = self.sample_label(profile, rng)
                title, description = render_description(name, label, rng)
                created_at = self._sample_created_at(profile, rng)
                closed = rng.random() < _CLOSED_FRACTION
                bug_id = f"{name.upper()}-{index}"
                if name.upper() == "FAUCET":
                    report = BugReport(
                        bug_id=bug_id,
                        controller=name,
                        title=title,
                        description=description,
                        created_at=created_at,
                        labels=("bug",),
                        status=IssueStatus.CLOSED if closed else IssueStatus.OPEN,
                    )
                    github.add(report)
                else:
                    severity = (
                        Severity.BLOCKER if rng.random() < 0.25 else Severity.CRITICAL
                    )
                    report = BugReport(
                        bug_id=bug_id,
                        controller=name,
                        title=title,
                        description=description,
                        created_at=created_at,
                        severity=severity,
                    )
                    jira.add(report)
                    if closed:
                        days = self.resolution_model.sample_days(
                            name, label.trigger, rng
                        )
                        resolved_at = created_at + timedelta(days=days)
                        jira.resolve(bug_id, resolved_at)
                        jira.link_gerrit(
                            bug_id,
                            _render_gerrit(label, bug_id, title, resolved_at, gerrit_rng),
                        )
                labeled.append(LabeledBug(report=report, label=label))

        dataset = BugDataset(labeled)
        manual = dataset.manual_sample(per_controller=50, seed=self.seed)
        manual_labels = LabelStore(
            {bug.bug_id: bug.label for bug in manual}
        )
        return StudyCorpus(
            jira=jira,
            github=github,
            dataset=dataset,
            manual_sample=manual,
            manual_labels=manual_labels,
            profiles=dict(self.profiles),
        )
