"""Seeded history generators for FAUCET and ONOS (substitute for git).

The FAUCET generator emits commits whose subsystem mix matches Fig 11
(configuration 38%, network functionality 35%, external abstraction 27%)
and a requirements-file history whose per-dependency version churn matches
Table IV.  The ONOS helper returns the Fig 10 commits-per-release series
(burst early, declining after 1.14).
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

from repro.gitmodel.deps import RequirementsFile
from repro.gitmodel.models import Commit, CommitHistory, Subsystem
from repro.paperdata import (
    FAUCET_COMMIT_SHARE,
    FAUCET_DEPENDENCY_BURNDOWN,
    ONOS_RELEASES,
)

#: Representative file paths per subsystem, matched to the burn classifier.
_SUBSYSTEM_PATHS: dict[Subsystem, tuple[str, ...]] = {
    Subsystem.CONFIGURATION: (
        "faucet/config_parser.py",
        "faucet/config_parser_util.py",
        "faucet/conf.py",
        "etc/faucet/faucet.yaml",
    ),
    Subsystem.NETWORK_FUNCTIONALITY: (
        "faucet/valve.py",
        "faucet/valve_of.py",
        "faucet/vlan.py",
        "faucet/port.py",
        "faucet/acl.py",
        "faucet/router.py",
        "faucet/stack.py",
    ),
    Subsystem.EXTERNAL_ABSTRACTION: (
        "faucet/gauge.py",
        "faucet/gauge_influx.py",
        "faucet/prom_client.py",
        "requirements.txt",
    ),
}

_MESSAGES: dict[Subsystem, tuple[str, ...]] = {
    Subsystem.CONFIGURATION: (
        "Validate interface ranges in config parser",
        "Support reload of vlan options from yaml",
        "Reject unknown keys in dp config",
    ),
    Subsystem.NETWORK_FUNCTIONALITY: (
        "Fix flow ordering for mirrored ports",
        "Add IPv6 routing support to valve",
        "Handle port down events in stack topology",
    ),
    Subsystem.EXTERNAL_ABSTRACTION: (
        "Pin ryu version and adapt to new OFPMatch API",
        "Handle influxdb write type errors in gauge",
        "Update prometheus client usage",
    ),
}


class FaucetHistoryGenerator:
    """Generate FAUCET's commit history and requirements snapshots."""

    #: The span the history covers.
    start = datetime(2016, 1, 4)
    end = datetime(2020, 4, 1)

    def __init__(self, *, n_commits: int = 3000, seed: int = 11) -> None:
        if n_commits < 1:
            raise ValueError("n_commits must be >= 1")
        self.n_commits = n_commits
        self.seed = seed

    def generate(self) -> CommitHistory:
        """Commit stream with the Fig 11 subsystem mix."""
        rng = random.Random(self.seed)
        span = (self.end - self.start).total_seconds()
        weights = {
            Subsystem.CONFIGURATION: FAUCET_COMMIT_SHARE["configuration"],
            Subsystem.NETWORK_FUNCTIONALITY: FAUCET_COMMIT_SHARE[
                "network_functionality"
            ],
            Subsystem.EXTERNAL_ABSTRACTION: FAUCET_COMMIT_SHARE[
                "external_abstraction"
            ],
        }
        subsystems = list(weights)
        probabilities = [weights[s] for s in subsystems]
        commits = []
        for i in range(self.n_commits):
            subsystem = rng.choices(subsystems, probabilities)[0]
            paths = _SUBSYSTEM_PATHS[subsystem]
            n_files = rng.randint(1, min(3, len(paths)))
            commits.append(
                Commit(
                    sha=f"{rng.getrandbits(160):040x}",
                    author=rng.choice(("anarkiwi", "gizmoguy", "cglewis", "trungdtbk")),
                    date=self.start + timedelta(seconds=rng.random() * span),
                    message=rng.choice(_MESSAGES[subsystem]),
                    files=tuple(rng.sample(paths, n_files)),
                    insertions=rng.randint(1, 300),
                    deletions=rng.randint(0, 120),
                )
            )
        return CommitHistory(commits)

    def generate_requirements_history(self) -> list[RequirementsFile]:
        """Requirement snapshots whose churn matches Table IV.

        Each dependency gets exactly its Table IV number of version bumps,
        spread across the history at random (seeded) dates.
        """
        rng = random.Random(self.seed + 1)
        span_days = (self.end - self.start).days
        # Schedule: per dependency, the day offsets of its version bumps.
        bump_days: dict[str, list[int]] = {}
        for package, (changes, _desc) in FAUCET_DEPENDENCY_BURNDOWN.items():
            bump_days[package] = sorted(rng.sample(range(1, span_days), changes))
        all_days = sorted({0, *[d for days in bump_days.values() for d in days]})
        versions: dict[str, int] = {pkg: 0 for pkg in bump_days}
        snapshots: list[RequirementsFile] = []
        for day in all_days:
            for package, days in bump_days.items():
                if day in days:
                    versions[package] += 1
            snapshots.append(
                RequirementsFile(
                    date=self.start + timedelta(days=day),
                    pins={
                        pkg: f"{1 + v // 10}.{v % 10}.0" for pkg, v in versions.items()
                    },
                )
            )
        return snapshots


#: Fig 10: ONOS commits per release — a burst while prototyping (1.12-1.14),
#: then a steady decline.
_ONOS_COMMITS = (4200, 4800, 5100, 4300, 3600, 3100, 2800, 2600)


def onos_commits_per_release() -> dict[str, int]:
    """Commits per ONOS release (Fig 10 series)."""
    return dict(zip(ONOS_RELEASES, _ONOS_COMMITS))
