"""Journaled, digest-verified stage execution over the artifact cache.

The :class:`CheckpointManager` is the recovery layer's write path.  Each
stage follows the WAL discipline:

1. ``begin`` is journaled *before* any compute starts;
2. the artifact publishes atomically through
   :meth:`~repro.parallel.ArtifactCache.put` (tmp + ``os.replace``, digest
   sidecar);
3. ``commit`` — carrying the cache key and the artifact's sha256 digest —
   is journaled only after the checkpoint is durable.

On resume the manager is seeded with the journal's committed-stage map: a
stage whose committed key matches the current configuration is satisfied
straight from the cache, *iff* the cached payload still carries the exact
digest the journal promised.  A vanished, truncated, or bit-flipped
checkpoint is quarantined by the cache and the stage silently returns to
the recompute path — corruption costs a recompute, never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ReproError
from repro.parallel.cache import ArtifactCache, cache_key
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    EVENT_SKIP,
    JournalEvent,
    JournalReplay,
    RunJournal,
    replay_journal,
)

#: Journal directory under a cache root: ``<cache>/.journal/<run_id>.jsonl``.
JOURNAL_DIRNAME = ".journal"


class RecoveryError(ReproError):
    """Invalid recovery configuration, or a resume that cannot be honored."""


def digest_config(config: Mapping[str, Any]) -> str:
    """A run's resume identity: sha256 over its config as canonical JSON
    (sorted keys, no whitespace), as ``run-start`` records it."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def open_run_journal(
    path: str | Path,
    run_id: str,
    *,
    resume: bool,
    config_digest: str,
    on_event: Callable[[JournalEvent], None] | None = None,
    replay: JournalReplay | None = None,
) -> tuple[RunJournal, dict[str, JournalEvent]]:
    """Open (fresh) or replay-then-reopen (resume) the journal for one run.

    Fresh runs refuse an existing journal (the caller must say ``resume``
    explicitly); resumes refuse a journal written for a different
    ``config_digest`` — continuing a run under changed hyperparameters
    would silently mix artifacts from two different experiments.  A
    refused resume leaves the file untouched.  A resume parses the file
    once, or not at all when the caller passes its own ``replay`` of it.

    Returns the open journal plus the committed-stage map replayed from a
    resumed journal (empty for fresh runs).
    """
    path = Path(path)
    committed: dict[str, JournalEvent] = {}
    if resume:
        if replay is None:
            replay = replay_journal(path)
        recorded = replay.run_config().get("config")
        if recorded != config_digest:
            raise RecoveryError(
                f"{path}: resume refused — journal was written for a "
                f"different configuration ({recorded} != {config_digest})"
            )
        committed = replay.committed()
        journal = RunJournal(path, run_id, on_event=on_event, replay=replay)
        journal.append(EVENT_RUN_RESUME, meta={"config": config_digest})
    else:
        if path.exists():
            raise RecoveryError(
                f"{path}: journal already exists for run id {run_id!r}; "
                "pass resume= to continue it"
            )
        journal = RunJournal(path, run_id, on_event=on_event)
        journal.append(EVENT_RUN_START, meta={"config": config_digest})
    return journal, committed


@contextmanager
def journaled_run(
    path: str | Path,
    run_id: str,
    *,
    resume: bool,
    config_digest: str,
    on_event: Callable[[JournalEvent], None] | None = None,
) -> Iterator[tuple[RunJournal, dict[str, JournalEvent]]]:
    """The journal lifecycle every journaled run shares.

    Opens (or resumes) the journal via :func:`open_run_journal` and yields
    it with the committed-stage map; appends ``run-end`` when the body
    finishes and closes the journal either way.
    """
    journal, committed = open_run_journal(
        path, run_id, resume=resume, config_digest=config_digest, on_event=on_event
    )
    try:
        yield journal, committed
        journal.append(EVENT_RUN_END)
    finally:
        journal.close()


@contextmanager
def checkpointed_run(
    cache: ArtifactCache | None,
    run_id: str | None,
    resume: str | None,
    *,
    config_digest: str,
    on_event: Callable[[JournalEvent], None] | None = None,
) -> Iterator["CheckpointManager | None"]:
    """Journal a cache-backed run at ``<cache>/.journal/<run_id>.jsonl``.

    ``run_id=`` starts a journaled run and ``resume=`` continues one; with
    neither the run is unjournaled and this yields ``None``.  Journaled
    runs need the cache, because its checkpoints are what resume skips to.
    """
    if resume is not None:
        if run_id is not None and run_id != resume:
            raise RecoveryError(
                f"conflicting run ids: run_id={run_id!r}, resume={resume!r}"
            )
        run_id = resume
    if run_id is None:
        yield None
        return
    if cache is None:
        raise RecoveryError(
            "journaled runs require an artifact cache "
            "(checkpoints are what resume recovers from)"
        )
    with journaled_run(
        cache.root / JOURNAL_DIRNAME / f"{run_id}.jsonl",
        run_id,
        resume=resume is not None,
        config_digest=config_digest,
        on_event=on_event,
    ) as (journal, committed):
        yield CheckpointManager(cache, journal, committed=committed)


@dataclass(frozen=True)
class StageOutcome:
    """How one stage was satisfied."""

    stage: str
    key: str
    digest: str
    #: The artifact came from the cache (committed-skip or plain warm hit).
    hit: bool
    #: The artifact was proven finished by the journal and not re-verified
    #: beyond its digest — the resume fast path.
    skipped: bool


class CheckpointManager:
    """Run stages with begin/commit journaling and verified resume."""

    def __init__(
        self,
        cache: ArtifactCache,
        journal: RunJournal,
        *,
        committed: Mapping[str, JournalEvent] | None = None,
    ) -> None:
        self.cache = cache
        self.journal = journal
        self.committed = dict(committed or {})
        self.outcomes: list[StageOutcome] = []

    def run_stage(
        self,
        stage: str,
        namespace: str,
        params: Mapping[str, Any],
        compute: Callable[[], Any],
    ) -> tuple[Any, StageOutcome]:
        """Skip, reuse, or compute-and-commit one stage."""
        key = cache_key(namespace, params)
        record = self.committed.get(stage)
        if record is not None and record.key == key:
            value, found = self.cache.lookup(namespace, params)
            if found and self.cache.digest_of(namespace, params) == record.digest:
                self.journal.append(
                    EVENT_SKIP, stage=stage, key=key, digest=record.digest
                )
                outcome = StageOutcome(stage, key, record.digest,
                                       hit=True, skipped=True)
                self.outcomes.append(outcome)
                return value, outcome
            # The journal promised a checkpoint the cache can no longer
            # prove (quarantined, vanished, or digest drift): recompute.
        value, found = self.cache.lookup(namespace, params)
        self.journal.append(EVENT_BEGIN, stage=stage, key=key)
        # A warm entry from an unjournaled run is adopted as a commit, so
        # later resumes skip it; otherwise compute and publish first.
        if not found:
            value = compute()
            self.cache.put(namespace, params, value)
        digest = self.cache.digest_of(namespace, params) or ""
        self.journal.append(EVENT_COMMIT, stage=stage, key=key, digest=digest)
        outcome = StageOutcome(stage, key, digest, hit=found, skipped=False)
        self.outcomes.append(outcome)
        return value, outcome

    # -- reporting -------------------------------------------------------------
    def skipped_stages(self) -> list[str]:
        return [o.stage for o in self.outcomes if o.skipped]
