"""NVD-like vulnerability database.

The default database contains the real CVE the paper cites
(CVE-2018-1000615: an outdated OVSDB library enabling a DoS on ONOS) plus a
synthetic entry set shaped so that ONOS's exposure grows across releases as
dependencies accumulate (Table III-b's observation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VersionError
from repro.vuln.versions import Version, VersionRange


@dataclass(frozen=True)
class CveEntry:
    """One CVE: the affected package, version range, and severity score."""

    cve_id: str
    package: str
    affected: VersionRange
    cvss: float  # 0.0 - 10.0
    summary: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.cvss <= 10.0:
            raise VersionError(f"{self.cve_id}: cvss {self.cvss} out of range")


class VulnerabilityDatabase:
    """Queryable CVE collection indexed by package."""

    def __init__(self, entries: list[CveEntry]) -> None:
        self._by_package: dict[str, list[CveEntry]] = {}
        ids = set()
        for entry in entries:
            if entry.cve_id in ids:
                raise VersionError(f"duplicate CVE id {entry.cve_id}")
            ids.add(entry.cve_id)
            self._by_package.setdefault(entry.package, []).append(entry)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_package.values())

    def lookup(self, package: str, version: str | Version) -> list[CveEntry]:
        """All CVEs affecting ``package`` at ``version``."""
        if isinstance(version, str):
            version = Version.parse(version)
        return [
            entry
            for entry in self._by_package.get(package, [])
            if entry.affected.contains(version)
        ]

    def packages(self) -> list[str]:
        return sorted(self._by_package)


def _r(expr: str) -> VersionRange:
    return VersionRange.parse(expr)


def default_database() -> VulnerabilityDatabase:
    """The database used by the Table III-b reproduction."""
    return VulnerabilityDatabase(
        [
            # The CVE the paper names (SS V-A).
            CveEntry(
                "CVE-2018-1000615",
                "ovsdb",
                _r("[, 2.9.2)"),
                7.5,
                "OVSDB implementation allows remote DoS against ONOS",
            ),
            CveEntry(
                "CVE-2017-1000081",
                "netty",
                _r("[4.0.0, 4.1.12)"),
                6.5,
                "HTTP/2 frame handling allows resource exhaustion",
            ),
            CveEntry(
                "CVE-2018-0732",
                "openssl-java",
                _r("[1.0.0, 1.1.1)"),
                5.3,
                "Large DH parameter causes client hang",
            ),
            CveEntry(
                "CVE-2019-16869",
                "netty",
                _r("[, 4.1.42)"),
                7.5,
                "HTTP request smuggling via whitespace-prefixed headers",
            ),
            CveEntry(
                "CVE-2018-7489",
                "jackson-databind",
                _r("[, 2.8.11.1)"),
                9.8,
                "Deserialization of untrusted data enables RCE",
            ),
            CveEntry(
                "CVE-2019-12384",
                "jackson-databind",
                _r("[, 2.9.9.1)"),
                5.9,
                "Polymorphic typing gadget enables RCE under conditions",
            ),
            CveEntry(
                "CVE-2019-0201",
                "zookeeper",
                _r("[, 3.4.14)"),
                5.9,
                "Insufficient ACL check on getACL request",
            ),
            CveEntry(
                "CVE-2020-1945",
                "karaf",
                _r("[, 4.2.9)"),
                6.3,
                "Shell command injection via crafted config",
            ),
            CveEntry(
                "CVE-2019-17573",
                "cxf",
                _r("[, 3.3.5)"),
                6.1,
                "Reflected XSS in services listing page",
            ),
            CveEntry(
                "CVE-2020-9488",
                "log4j",
                _r("[, 2.13.2)"),
                3.7,
                "Improper certificate validation in SMTP appender",
            ),
            CveEntry(
                "CVE-2019-10202",
                "snakeyaml",
                _r("[, 1.26)"),
                8.1,
                "Unbounded alias expansion (billion laughs)",
            ),
            CveEntry(
                "CVE-2020-13936",
                "velocity",
                _r("[, 2.3)"),
                8.8,
                "Sandbox bypass enables arbitrary code execution",
            ),
            CveEntry(
                "CVE-2019-20444",
                "grpc-java",
                _r("[, 1.27.0)"),
                7.0,
                "Header parsing allows request smuggling",
            ),
            CveEntry(
                "CVE-2018-8012",
                "zookeeper",
                _r("[, 3.4.10)"),
                7.5,
                "No authentication enforced for quorum joins",
            ),
            CveEntry(
                "CVE-2020-11612",
                "netty",
                _r("[, 4.1.46)"),
                7.5,
                "Decompression bomb in ZlibDecoders",
            ),
        ]
    )
