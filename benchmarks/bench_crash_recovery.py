"""Crash-recovery evidence: kill-injection campaign over the journaled pipeline.

The recovery counterpart of ``bench_parallel_pipeline``: a journaled
pipeline run is SIGKILLed at three distinct journal offsets (mid-corpus,
after the tfidf commit, mid-validate) plus one torn-write scenario where a
committed checkpoint is truncated before resume.  Every killed-then-resumed
run must be bit-for-bit identical to the uninterrupted reference — same
accuracies, classifier-weight digests, topics, and checkpoint sha256s —
with torn checkpoints quarantined (never trusted) and only uncommitted
stages re-executed.
"""

from __future__ import annotations

from conftest import once

from repro.recovery.harness import run_kill_campaign, save_campaign_json
from repro.recovery.smoke import PIPELINE_CONFIG
from repro.reporting import ascii_table

_KILL_POINTS = [2, 5, 8]


def test_bench_kill_injection_campaign(benchmark, tmp_path):
    reference, reports = once(
        benchmark,
        lambda: run_kill_campaign(
            "pipeline", PIPELINE_CONFIG, tmp_path, _KILL_POINTS, torn_write=True
        ),
    )

    rows = [
        [
            report.label,
            "yes" if report.killed else "NO",
            str(report.skipped),
            str(report.recomputed),
            str(report.quarantined),
            "PASS" if report.passed else "FAIL",
        ]
        for report in reports
    ]
    print("\n" + ascii_table(
        ["scenario", "killed", "skipped", "recomputed", "quarantined", "verdict"],
        rows,
        title=f"kill-injection campaign ({reference.units} stages, "
              f"{reference.events} journal events per clean run)",
    ))
    save_campaign_json(
        "benchmarks/artifacts/crash_recovery.json", reports
    )

    assert len(reports) == len(_KILL_POINTS) + 1
    for report in reports:
        assert report.killed, f"{report.label}: child was not SIGKILLed"
        assert report.passed, f"{report.label}: {report.mismatches}"
    # The torn-write scenario must surface its corruption in the ledger.
    torn = [r for r in reports if r.label.startswith("torn-write")]
    assert torn and torn[0].quarantined >= 1
    # Later kill points leave more committed work to skip on resume.
    by_kill = {r.kill_after: r for r in reports if not r.label.startswith("torn")}
    assert by_kill[2].skipped <= by_kill[5].skipped
    assert by_kill[5].skipped <= by_kill[8].skipped
