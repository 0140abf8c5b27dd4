"""Text and JSON rendering for sdnlint reports."""

from __future__ import annotations

import json

from repro.staticanalysis.model import AnalysisReport, Severity

_SEVERITY_TAG = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "info",
}


def to_text(report: AnalysisReport) -> str:
    """GCC-style one-line-per-finding rendering plus a summary block.

    Baselined findings are counted in the summary, not listed.
    """
    lines: list[str] = []
    for finding in report.findings:
        if finding.suppressed:
            continue
        lines.append(
            f"{finding.location}: {_SEVERITY_TAG[finding.severity]}: "
            f"{finding.message} "
            f"[{finding.detector}; root_cause={finding.root_cause.value}, "
            f"bug_type={finding.bug_type.value}]"
        )
    counts = report.counts_by_severity()
    lines.append(
        f"sdnlint: {report.modules_scanned} module(s) scanned, "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info, {len(report.suppressed)} baselined"
    )
    by_detector = report.counts_by_detector()
    if by_detector:
        parts = ", ".join(f"{det}={n}" for det, n in by_detector.items())
        lines.append(f"by detector: {parts}")
    by_cause = report.counts_by_root_cause()
    if by_cause:
        parts = ", ".join(f"{cause}={n}" for cause, n in by_cause.items())
        lines.append(f"by Table-I root cause: {parts}")
    return "\n".join(lines)


def to_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
