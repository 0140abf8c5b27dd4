"""Crash-safe pipeline runtime: journal, verified resume, kill injection.

The paper's framework survey (Ravana, LegoSDN, SCL) is about controllers
surviving crashes without losing or corrupting state.  This package applies
the same discipline — checkpoint, verify, resume — to the repository's own
long-running work:

* :class:`RunJournal` — append-only, fsync'd JSONL write-ahead log of stage
  ``begin``/``commit`` events (cache key + artifact sha256 per commit);
* :class:`CheckpointManager` — journaled stages over the
  :class:`~repro.parallel.ArtifactCache`'s atomic, digest-verified
  checkpoints, with corrupt entries quarantined instead of trusted;
* :func:`checkpointed_run` — the journal lifecycle for cache-backed runs
  (the pipeline);
* :class:`Snapshot` + :func:`fold_batches` — one journaled batch fold
  over a digest-verified JSON state (the fuzz campaign and stream ingest);
* :func:`run_kill_campaign` / :func:`spawn_killed` — deterministic kill
  injection for every journaled target: run it in a subprocess, SIGKILL it
  at the k-th journal event (or tear a checkpoint file at a byte offset),
  resume, and prove the result bit-for-bit equal to an uninterrupted run.
"""

from repro.recovery.checkpoint import (
    CheckpointManager,
    RecoveryError,
    StageOutcome,
    checkpointed_run,
)
from repro.recovery.fold import Snapshot, fold_batches
from repro.recovery.harness import (
    CampaignReport,
    cache_tree_digests,
    pipeline_fingerprint,
    run_kill_campaign,
    save_campaign_json,
    spawn_killed,
    tear_file,
)
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    EVENT_SKIP,
    JournalError,
    JournalEvent,
    JournalReplay,
    RunJournal,
    replay_journal,
)

__all__ = [
    "CampaignReport",
    "CheckpointManager",
    "EVENT_BEGIN",
    "EVENT_COMMIT",
    "EVENT_RUN_END",
    "EVENT_RUN_RESUME",
    "EVENT_RUN_START",
    "EVENT_SKIP",
    "JournalError",
    "JournalEvent",
    "JournalReplay",
    "RecoveryError",
    "RunJournal",
    "Snapshot",
    "StageOutcome",
    "cache_tree_digests",
    "checkpointed_run",
    "fold_batches",
    "pipeline_fingerprint",
    "replay_journal",
    "run_kill_campaign",
    "save_campaign_json",
    "spawn_killed",
    "tear_file",
]
