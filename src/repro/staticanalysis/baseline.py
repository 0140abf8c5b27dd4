"""Baseline (known-debt) file: accept existing findings, gate new ones.

A baseline entry pins ``(detector, path, line)``.  Matching findings are
*suppressed* — still reported, still counted separately — so the CI gate
can fail on new debt while the committed debt is paid down incrementally.
The file is versioned JSON with sorted keys so diffs review cleanly.

Schema history:

* **(unversioned)** — the pre-versioning shape: a bare ``entries`` list
  with no ``version`` field.  Still loadable.
* **v1** — added the ``version`` field.
* **v2** — detector-ID namespacing: detector ids may carry a dotted
  family prefix (the interprocedural family is ``dataflow.*``), and the
  file records which families it covers under ``families`` so a v2
  baseline written before a family existed never silently blesses that
  family's findings.  v1 files (and unversioned files) load as covering
  only the classic un-namespaced detectors.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import StaticAnalysisError
from repro.parallel.cache import atomic_write
from repro.staticanalysis.model import AnalysisReport, Finding

_VERSION = 2

#: Versions :func:`load_baseline` accepts.  ``None`` stands for the
#: original unversioned shape.
_LOADABLE_VERSIONS = (None, 1, 2)


def baseline_key(finding: Finding) -> tuple[str, str, int]:
    return (finding.detector, finding.path, finding.line)


def _family_of(detector_id: str) -> str:
    """Namespace prefix of a detector id ("" for classic detectors)."""
    head, dot, _ = detector_id.rpartition(".")
    return head if dot else ""


def write_baseline(report: AnalysisReport, path: str | Path) -> int:
    """Write every *active* finding in ``report`` as accepted debt.

    Returns the number of entries written.  The write is atomic
    (tmp sibling + fsync + rename): the baseline gates CI, so a torn
    baseline must not be observable.
    """
    entries = [
        {"detector": f.detector, "path": f.path, "line": f.line}
        for f in sorted(report.active, key=Finding.sort_key)
    ]
    families = sorted(
        {_family_of(entry["detector"]) for entry in entries}
    )
    payload = json.dumps(
        {"version": _VERSION, "families": families, "entries": entries},
        indent=2,
        sort_keys=True,
    )
    atomic_write(Path(path), payload + "\n")
    return len(entries)


def load_baseline(path: str | Path) -> set[tuple[str, str, int]]:
    """Load baseline keys; a missing file is an empty baseline.

    Accepts the current v2 schema plus both legacy shapes (v1 and the
    original unversioned file), so an existing committed baseline keeps
    working across the upgrade; rewriting it with ``--write-baseline``
    migrates it to v2.
    """
    target = Path(path)
    if not target.exists():
        return set()
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StaticAnalysisError(f"unreadable baseline {target}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StaticAnalysisError(
            f"baseline {target}: unsupported format (not an object)"
        )
    version = payload.get("version")
    if version not in _LOADABLE_VERSIONS:
        raise StaticAnalysisError(
            f"baseline {target}: unsupported version {version!r} "
            f"(this build reads {sorted(v for v in _LOADABLE_VERSIONS if v)} "
            "and unversioned files)"
        )
    keys: set[tuple[str, str, int]] = set()
    for entry in payload.get("entries", ()):
        try:
            detector = str(entry["detector"])
            if version in (None, 1) and _family_of(detector):
                # Pre-namespacing files cannot have blessed namespaced
                # findings; a dotted id there is a corrupted entry, not
                # debt to honour.
                raise StaticAnalysisError(
                    f"baseline {target}: namespaced detector id "
                    f"{detector!r} in a v{version or 0} file"
                )
            keys.add((detector, entry["path"], int(entry["line"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise StaticAnalysisError(
                f"baseline {target}: malformed entry {entry!r}"
            ) from exc
    return keys


def apply_baseline(
    report: AnalysisReport, baseline: set[tuple[str, str, int]]
) -> AnalysisReport:
    """Mark findings matching ``baseline`` as suppressed (new report)."""
    findings = [
        f.suppress() if baseline_key(f) in baseline else f
        for f in report.findings
    ]
    return AnalysisReport(
        root=report.root,
        findings=findings,
        modules_scanned=report.modules_scanned,
    )
