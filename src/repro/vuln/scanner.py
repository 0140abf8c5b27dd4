"""Dependency scanner (OWASP dependency-check analogue) + ONOS manifests.

``onos_release_manifests`` models how ONOS's dependency set grows across
releases — each release adds libraries and only occasionally upgrades old
pins — which is what produces Table III-b's "vulnerability count grows over
time" trend when scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.paperdata import ONOS_RELEASES
from repro.vuln.database import CveEntry, default_database
from repro.vuln.versions import Version


@dataclass(frozen=True)
class ScanFinding:
    """One vulnerable dependency in one manifest."""

    package: str
    version: str
    cve: CveEntry


class DependencyScanner:
    """Match dependency manifests against a vulnerability database."""

    def __init__(self) -> None:
        self.database = default_database()

    def scan(self, manifest: Mapping[str, str]) -> list[ScanFinding]:
        """All findings for a ``{package: version}`` manifest."""
        findings: list[ScanFinding] = []
        for package, version_text in sorted(manifest.items()):
            version = Version.parse(version_text)
            for cve in self.database.lookup(package, version):
                findings.append(
                    ScanFinding(package=package, version=version_text, cve=cve)
                )
        return findings

    def scan_releases(
        self, manifests: Mapping[str, Mapping[str, str]]
    ) -> dict[str, list[ScanFinding]]:
        """Scan a ``{release: manifest}`` family (Table III-b)."""
        return {
            release: self.scan(manifest) for release, manifest in manifests.items()
        }


#: Dependency manifests per ONOS release.  Later releases accumulate more
#: third-party libraries (the paper: "ONOS' vulnerability increased over
#: time as more dependencies were added with version updates").
_BASE_MANIFEST: dict[str, str] = {
    "netty": "4.0.5",
    "jackson-databind": "2.8.6",
    "zookeeper": "3.4.8",
    "ovsdb": "2.8.1",
    "log4j": "2.11.0",
}

_RELEASE_ADDITIONS: dict[str, dict[str, str]] = {
    "1.12": {},
    "1.13": {"karaf": "4.2.1"},
    "1.14": {"snakeyaml": "1.23"},
    "1.15": {"cxf": "3.2.7"},
    "2.0": {"grpc-java": "1.19.0", "ovsdb": "2.9.0"},
    "2.1": {"velocity": "2.0"},
    "2.2": {"openssl-java": "1.0.2"},
    "2.3": {"netty": "4.1.40"},
}


def onos_release_manifests() -> dict[str, dict[str, str]]:
    """Cumulative dependency manifests per ONOS release."""
    manifests: dict[str, dict[str, str]] = {}
    current = dict(_BASE_MANIFEST)
    for release in ONOS_RELEASES:
        current = {**current, **_RELEASE_ADDITIONS.get(release, {})}
        manifests[release] = dict(current)
    return manifests
