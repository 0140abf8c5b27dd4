"""Kill smoke: ``python -m repro.recovery.smoke --target pipeline|fuzz|stream``.

The CI entry point for crash safety.  For the chosen target it runs one
kill campaign (:func:`~repro.recovery.harness.run_kill_campaign`): an
uninterrupted reference, then fresh runs SIGKILLed at several journal
offsets and resumed in-process, each required to be bit-for-bit identical
to the reference — accuracies, topics, weight digests and the sha256 of
every checkpoint for the pipeline, the final state fingerprint for the
fuzz campaign (with the sha256 of its three exports) and the stream
ingestion.  Two targets add checks:

- ``pipeline``: one torn-write scenario (a committed checkpoint truncated
  before resume must be quarantined and recomputed);
- ``stream``: a hostile fault mix, plus zero unpriced drops on the
  reference — ``consumed == applied + deduped + dead_lettered``, one
  ``GIVE_UP`` per abandoned block, and ``emitted == consumed +
  lost_upstream`` from regenerating every wire block outside the run.

Exit status 0 only when every scenario passes.  Verdicts land in
``<artifacts>/<target>_smoke.json`` next to every run's journal and the
reference's exports (the coverage map and reproducers; the DLQ, metrics,
summary and ledger) for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.fuzzing.campaign import FuzzConfig
from repro.recovery.harness import TARGETS, journal_path, run_kill_campaign
from repro.resilience.ledger import ResilienceEvent
from repro.stream.flaky import FlakySource
from repro.stream.ingest import IngestConfig
from repro.stream.source import synthetic_event

#: Journal offsets to SIGKILL at: mid-corpus, mid-nmf, mid-validate for the
#: pipeline; mid-run batch commits for the folds.
KILL_EVENTS = {"pipeline": [2, 5, 8], "fuzz": [3, 6], "stream": [3, 7, 12]}
#: Each target's one run shape.  The pipeline's is the kill child's JSON
#: config and small: the smoke proves recovery, not throughput.
PIPELINE_CONFIG = {
    "seed": 0, "jobs": 1, "dimensions": ["bug_type"], "n_topics": 2,
    "nmf_restarts": 2, "run_id": "kill",
}
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
#: Reference-run files kept as artifacts besides every run's journal.
EXPORTS = {
    "pipeline": (),
    "fuzz": ("coverage.json", "reproducers.json"),
    "stream": ("metrics.jsonl", "summary.json", "ledger.json", "dlq"),
}


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
    config = {
        "pipeline": PIPELINE_CONFIG,
        "fuzz": FUZZ_CONFIG.to_dict(),
        "stream": STREAM_CONFIG.to_dict(),
    }[target]
    print(f"{target} smoke: kill-events={kill_events}")
    with tempfile.TemporaryDirectory(prefix=f"{target}-smoke-") as tmp:
        workdir = Path(tmp)
        reference, reports = run_kill_campaign(
            target, config, workdir, kill_events, torn_write=target == "pipeline"
        )
        print(f"  reference: {reference.units} units, "
              f"{reference.events} journal events")
        audit = _stream_accounting(reference.result) if target == "stream" else {}
        for report in reports:
            print(f"  {'PASS' if report.passed else 'FAIL'} {report.label:22s} "
                  f"killed={report.killed} skipped={report.skipped} "
                  f"recomputed={report.recomputed} "
                  f"quarantined={report.quarantined}")
            for mismatch in report.mismatches:
                print(f"       mismatch: {mismatch}")
        for run_dir in sorted(workdir.iterdir()):
            journal = journal_path(target, config, run_dir)
            if journal.exists():
                shutil.copy2(journal, artifacts / f"{run_dir.name}.jsonl")
        for name in EXPORTS[target]:
            source = workdir / "reference" / name
            if source.is_dir():
                shutil.copytree(source, artifacts / name, dirs_exist_ok=True)
            elif source.exists():
                shutil.copy2(source, artifacts / name)
    verdicts = [
        {
            "label": "reference",
            "units": reference.units,
            "events": reference.events,
            "fingerprint": reference.fingerprint,
            **audit,
        },
        *(report.to_dict() for report in reports),
    ]
    failed = sum(1 for report in reports if not report.passed)
    failed += 0 if all(audit.values()) else 1
    (artifacts / f"{target}_smoke.json").write_text(
        json.dumps(verdicts, indent=2, sort_keys=True)
    )
    print(f"verdicts + artifacts under {artifacts}")
    if failed:
        print(f"{target} smoke FAILED: {failed} scenario(s)")
        return 1
    print(f"{target} smoke OK: {len(reports)} scenario(s), every resumed run "
          "bit-for-bit identical to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
