"""Crash-safe pipeline runtime: journal, verified resume, kill injection.

The paper's framework survey (Ravana, LegoSDN, SCL) is about controllers
surviving crashes without losing or corrupting state.  This package applies
the same discipline — checkpoint, verify, resume — to the repository's own
long-running work:

* :class:`~repro.recovery.journal.RunJournal` — append-only, fsync'd JSONL
  write-ahead log of stage ``begin``/``commit`` events (cache key +
  artifact sha256 per commit);
* :class:`~repro.recovery.checkpoint.CheckpointManager` — journaled stages
  over the :class:`~repro.parallel.cache.ArtifactCache`'s atomic,
  digest-verified checkpoints, with corrupt entries quarantined instead of
  trusted;
* :func:`~repro.recovery.checkpoint.checkpointed_run` — the journal
  lifecycle for cache-backed runs (the pipeline);
* :class:`~repro.recovery.fold.Snapshot` +
  :func:`~repro.recovery.fold.fold_batches` — one journaled batch fold
  over a digest-verified JSON state (the fuzz campaign and stream ingest);
* :func:`~repro.recovery.harness.run_kill_campaign` /
  :func:`~repro.recovery.harness.spawn_killed` — deterministic kill
  injection for every journaled target: run it in a subprocess, SIGKILL it
  at the k-th journal event (or tear a checkpoint file at a byte offset),
  resume, and prove the result bit-for-bit equal to an uninterrupted run.
"""
