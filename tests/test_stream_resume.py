"""Ingest kill injection: SIGKILL at any journal boundary, resume bit-identical.

A child process (``repro.recovery._child --target stream``) runs a journaled ingestion and
SIGKILLs itself the instant the k-th journal event is durable.  Resuming
in-process must then reach the exact final state fingerprint of an
uninterrupted reference run — full canonical state, learner weights
included — across three seeds and three kill offsets straddling distinct
batch commits.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

from repro.recovery import replay_journal, spawn_killed
from repro.stream import IngestConfig, run_ingest

SEEDS = [0, 1, 2]
#: Journal offsets: the fresh journal emits RUN_START then BEGIN/COMMIT
#: pairs per batch, so 2 kills mid-batch-0, 5 after batch-1's commit is
#: durable, 8 mid-batch-3.
KILL_POINTS = [2, 5, 8]


def _config(seed: int) -> IngestConfig:
    return IngestConfig(
        seed=seed,
        events=240,
        batch=48,
        block=16,
        pool=40,
        outage_rate=0.25,
        outage_depth=3,
        rate_limit_rate=0.1,
        corrupt_rate=0.05,
        duplicate_rate=0.1,
        reorder_rate=0.3,
        retry_attempts=2,
        queue_capacity=32,
    )


def _spawn_killed(config: IngestConfig, run_dir: Path, kill_after: int):
    return spawn_killed("stream", config.to_dict(), run_dir, kill_after, timeout=300)


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """One uninterrupted reference fingerprint per seed."""
    out = {}
    for seed in SEEDS:
        run_dir = tmp_path_factory.mktemp(f"stream-ref-{seed}") / "run"
        out[seed] = run_ingest(_config(seed), run_dir).state.fingerprint()
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kill_after", KILL_POINTS)
def test_killed_ingest_resumes_bit_identical(
    references, tmp_path, seed, kill_after
):
    config = _config(seed)
    run_dir = tmp_path / "run"
    killed = _spawn_killed(config, run_dir, kill_after)
    assert killed.returncode == -signal.SIGKILL, killed.stderr[-500:]

    # The kill point is deterministic: exactly k durable events survive,
    # and the run cannot have finished (no RUN_END yet).
    replay = replay_journal(run_dir / "journal.jsonl")
    assert len(replay.events) == kill_after
    assert replay.dropped == 0
    committed_before = len(replay.committed())
    assert committed_before < config.n_batches

    resumed = run_ingest(config, run_dir, resume=True)
    assert resumed.state.fingerprint() == references[seed]
    # Only uncommitted batches re-executed.
    assert resumed.batches_executed == config.n_batches - committed_before
    # The resumed run's exports match the resumed state, accounting intact.
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["fingerprint"] == references[seed]
    state = resumed.state
    assert state.consumed == state.applied + state.deduped + state.dead_lettered
