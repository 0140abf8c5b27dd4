"""Kill smoke: ``python -m repro.recovery.smoke --target pipeline|fuzz|stream``.

The CI entry point for crash safety.  For the chosen target it runs one
uninterrupted reference, SIGKILLs fresh runs at several journal offsets
(:func:`~repro.recovery.harness.spawn_killed`), resumes each in-process,
and requires every resumed run to be bit-for-bit identical to the
reference.  Each target adds its own checks:

- ``pipeline``: accuracies, topics, weight digests and the sha256 of every
  checkpoint in the cache tree, plus one torn-write scenario (a committed
  checkpoint truncated before resume must be quarantined and recomputed);
- ``fuzz``: the final :class:`~repro.fuzzing.corpus.FuzzState`
  fingerprint;
- ``stream``: the final :class:`~repro.stream.state.StreamState`
  fingerprint under a hostile fault mix, plus zero unpriced drops on the
  reference — ``consumed == applied + deduped + dead_lettered``, one
  ``GIVE_UP`` per abandoned block, and ``emitted == consumed +
  lost_upstream`` from regenerating every wire block outside the run.

Exit status 0 only when every scenario passes.  Verdicts land in
``<artifacts>/<target>_smoke.json`` next to the target's artifacts (the
journals; the coverage map and reproducers; the DLQ, metrics, summary and
ledger) for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.fuzzing.campaign import FuzzConfig
from repro.recovery.checkpoint import JOURNAL_DIRNAME
from repro.recovery.harness import (
    TARGETS,
    CrashHarness,
    run_kill_campaign,
    run_target,
    spawn_killed,
)
from repro.resilience.ledger import ResilienceEvent
from repro.stream.flaky import FlakySource
from repro.stream.ingest import IngestConfig
from repro.stream.source import synthetic_event

#: Journal offsets to SIGKILL at: mid-corpus, mid-nmf, mid-validate for the
#: pipeline; mid-run batch commits for the folds.
KILL_EVENTS = {"pipeline": [2, 5, 8], "fuzz": [3, 6], "stream": [3, 7, 12]}
PIPELINE_SEED = 0
FUZZ_CONFIG = FuzzConfig(
    controllers=5, switches=12, budget=40, batch=8, seed=7, horizon=30.0
)
#: A deliberately hostile mix: outages deeper than the retry budget
#: (forcing real, priced give-ups), throttling, corruption, duplication,
#: reordering — the full catalog at once.
STREAM_CONFIG = IngestConfig(
    seed=7, events=1200, batch=192, block=32, pool=150,
    outage_rate=0.3, outage_depth=5, rate_limit_rate=0.2, corrupt_rate=0.06,
    duplicate_rate=0.12, reorder_rate=0.3, retry_attempts=3,
)
#: Reference-run files kept as artifacts, per fold target.
EXPORTS = {
    "fuzz": ("coverage.json", "reproducers.json"),
    "stream": ("metrics.jsonl", "summary.json", "ledger.json", "dlq"),
}


def _pipeline(workdir: Path, kill_events: list[int], artifacts: Path):
    reports = run_kill_campaign(
        CrashHarness(workdir, seed=PIPELINE_SEED), kill_events, torn_write=True
    )
    for report in reports:
        print(f"  {'PASS' if report.passed else 'FAIL'} {report.label:22s} "
              f"killed={report.killed} skipped={report.skipped_stages} "
              f"recomputed={report.recomputed_stages} "
              f"quarantined={report.quarantined}")
        for mismatch in report.mismatches:
            print(f"       mismatch: {mismatch}")
    for journal in sorted(workdir.rglob(f"{JOURNAL_DIRNAME}/*.jsonl")):
        shutil.copy2(journal, artifacts / f"{journal.parents[2].name}-{journal.name}")
    failed = sum(1 for report in reports if not report.passed)
    return [report.to_dict() for report in reports], failed


def _stream_accounting(report) -> dict[str, bool]:
    """The zero-unpriced-drops contract, audited on the reference run."""
    state, config = report.state, STREAM_CONFIG
    balanced = state.consumed == state.applied + state.deduped + state.dead_lettered
    give_ups = report.ledger.count(ResilienceEvent.GIVE_UP)
    # Every wire block is a pure function of (seed, block), so the emitted
    # total regenerates independently of any run.
    source = FlakySource(
        lambda i: synthetic_event(config.seed, i, pool=config.pool),
        config.events,
        mix=config.mix(),
        seed=config.seed,
        block_size=config.block,
    )
    emitted = sum(len(source.wire_block(b)) for b in range(source.n_blocks))
    accounted = state.consumed + state.lost_upstream
    print(f"  accounting: consumed==applied+deduped+dead_lettered: {balanced}; "
          f"give-ups priced {give_ups}/{state.blocks_abandoned}; "
          f"emitted {emitted} == consumed+lost {accounted}")
    return {
        "accounting_balanced": balanced,
        "give_ups_priced": give_ups == state.blocks_abandoned,
        "emitted_conserved": emitted == accounted,
    }


def _fold(target: str, workdir: Path, kill_events: list[int], artifacts: Path):
    config = (FUZZ_CONFIG if target == "fuzz" else STREAM_CONFIG).to_dict()
    reference = run_target(target, config, workdir / "reference")
    ref_fingerprint = reference.state.fingerprint()
    print(f"  reference: {reference.summary()}")
    verdict: dict[str, Any] = {
        "label": "reference",
        "fingerprint": ref_fingerprint,
        "summary": reference.summary(),
    }
    if target == "stream":
        verdict.update(_stream_accounting(reference))
    failed = 0 if all(v for v in verdict.values() if isinstance(v, bool)) else 1
    verdicts = [verdict]
    for k in kill_events:
        run_dir = workdir / f"kill-{k}"
        killed = spawn_killed(target, config, run_dir, k).returncode == -signal.SIGKILL
        resumed = run_target(target, config, run_dir, resume=True)
        identical = resumed.state.fingerprint() == ref_fingerprint
        failed += 0 if killed and identical else 1
        verdicts.append({
            "label": f"kill-{k}",
            "killed": killed,
            "fingerprint": resumed.state.fingerprint(),
            "bit_identical": identical,
        })
        print(f"  {'PASS' if killed and identical else 'FAIL'} kill-{k}: "
              f"killed={killed} bit-identical={identical}")
    for name in EXPORTS[target]:
        source = workdir / "reference" / name
        if source.is_dir():
            shutil.copytree(source, artifacts / name, dirs_exist_ok=True)
        elif source.exists():
            shutil.copy2(source, artifacts / name)
    return verdicts, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.recovery.smoke")
    parser.add_argument("--target", required=True, choices=TARGETS)
    parser.add_argument(
        "--kill-events", type=int, nargs="+",
        help="journal offsets to SIGKILL at (default: the target's CI offsets)",
    )
    parser.add_argument(
        "--artifacts",
        help="directory for verdicts + artifacts, uploaded by CI "
             "(default: benchmarks/artifacts/<target>-smoke)",
    )
    args = parser.parse_args(argv)

    target = args.target
    kill_events = args.kill_events or KILL_EVENTS[target]
    artifacts = Path(args.artifacts or f"benchmarks/artifacts/{target}-smoke")
    artifacts.mkdir(parents=True, exist_ok=True)
    print(f"{target} smoke: kill-events={kill_events}")
    with tempfile.TemporaryDirectory(prefix=f"{target}-smoke-") as tmp:
        if target == "pipeline":
            verdicts, failed = _pipeline(Path(tmp), kill_events, artifacts)
        else:
            verdicts, failed = _fold(target, Path(tmp), kill_events, artifacts)
    (artifacts / f"{target}_smoke.json").write_text(
        json.dumps(verdicts, indent=2, sort_keys=True)
    )
    print(f"verdicts + artifacts under {artifacts}")
    if failed:
        print(f"{target} smoke FAILED: {failed} scenario(s)")
        return 1
    print(f"{target} smoke OK: {len(verdicts)} scenario(s), every resumed run "
          "bit-for-bit identical to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
