"""Kill-injection acceptance: killed-then-resumed == uninterrupted, bit for bit.

Every journaled target — the pipeline, a fuzz campaign, a stream
ingestion — runs in a subprocess that SIGKILLs itself the moment the k-th
journal event is durable (see ``repro.recovery._child``).  Resume must then
reproduce the uninterrupted reference exactly — for the pipeline the same
accuracies, classifier-weight digests, topics and sha256 for every
checkpoint payload, for a fold the same final state fingerprint (and for
fuzz the same exports, for the stream the same dead letters) — while
re-executing *only* the units whose commits never landed, which we assert
from the journal's own event counts.

The write-fault rows fail one ``atomic_write`` instead (disk full, I/O
error): the run must raise, leave no partial file and no commit for the
failed write, and a resume must still reach the reference.  The
append-fault rows fail one ``RunJournal.append`` the same two ways: the
journal must end at the record before it, with no torn tail.
"""

from __future__ import annotations

import errno
import io
import json
import os
import signal
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.observability.report import collect_run
from repro.observability.spans import spans_from_journal
from repro.parallel import ArtifactCache, atomic_write
from repro.recovery.harness import (
    TARGETS,
    journal_path,
    kill_and_resume,
    run_fingerprint,
    run_reference,
    run_target,
    spawn_killed,
    tear_file,
)
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_SKIP,
    JournalError,
    RunJournal,
    replay_journal,
)
from repro.recovery.smoke import FUZZ_CONFIG, PIPELINE_CONFIG
from repro.stream import DeadLetterQueue, IngestConfig

SEEDS = [0, 1, 2]
#: Journal offsets covering distinct crash positions.  Pipeline:
#: mid-corpus (before any commit), after the tfidf commit, mid-validate.
#: Stream (RUN_START, then a BEGIN/COMMIT pair per batch): mid-batch-0,
#: after batch 1's commit, mid-batch-3.
KILL_POINTS = [2, 5, 8]
#: The fuzz rows run the kill smoke's shape: after batch 0's commit, and
#: mid-batch-2.
FUZZ_KILL_POINTS = [3, 6]

CASES = [
    # Pipeline rows keep their long-standing `<kill>-<seed>` ids, so test
    # history stays comparable across the fold rows' arrival.
    *(pytest.param("pipeline", seed, k, id=f"{k}-{seed}")
      for seed in SEEDS for k in KILL_POINTS),
    *(pytest.param("stream", seed, k, id=f"stream-{k}-{seed}")
      for seed in SEEDS for k in KILL_POINTS),
    *(pytest.param("fuzz", FUZZ_CONFIG.seed, k, id=f"fuzz-{k}-{FUZZ_CONFIG.seed}")
      for k in FUZZ_KILL_POINTS),
]


def _config(target: str, seed: int) -> dict:
    if target == "pipeline":
        return {**PIPELINE_CONFIG, "seed": seed}
    if target == "fuzz":
        return FUZZ_CONFIG.to_dict()
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
    ).to_dict()


def _reference_dir(tmp_path_factory, target: str, seed: int) -> Path:
    return tmp_path_factory.getbasetemp() / f"{target}-ref-{seed}"


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Uninterrupted reference per (target, seed), run on first use and
    shared (the pipeline's are expensive)."""
    built = {}

    def reference(target: str, seed: int):
        if (target, seed) not in built:
            run_dir = _reference_dir(tmp_path_factory, target, seed)
            run_dir.mkdir()
            built[target, seed] = run_reference(target, _config(target, seed), run_dir)
        return built[target, seed]

    return reference


@pytest.mark.parametrize("target", TARGETS)
def test_run_report_holds_the_journal_spans(references, tmp_path_factory, target):
    """``repro metrics --run-dir`` on a finished run renders its journal."""
    seed = FUZZ_CONFIG.seed if target == "fuzz" else 0
    references(target, seed)
    run_dir = _reference_dir(tmp_path_factory, target, seed)
    journal = journal_path(target, _config(target, seed), run_dir)
    spans = collect_run(run_dir).traces.get(journal)
    assert spans == spans_from_journal(journal)
    assert spans and spans[0].name == "run"


@pytest.mark.parametrize(("target", "seed", "kill_after"), CASES)
def test_killed_then_resumed_is_bit_identical(
    references, tmp_path, target, seed, kill_after
):
    config = _config(target, seed)
    reference = references(target, seed)
    run_dir = tmp_path / "run"
    report, resumed = kill_and_resume(target, config, run_dir, kill_after, reference)
    assert report.killed, report.mismatches
    # No mismatch: exactly k durable events and no torn tail at the kill,
    # and the resumed fingerprint equals the reference's.
    assert report.mismatches == []
    assert resumed.resumed
    # For the pipeline the fingerprint holds every checkpoint's sha256.
    assert run_fingerprint(target, resumed, run_dir) == reference.fingerprint

    # The kill point is deterministic and the run had not finished.
    killed_segment, resume_segment = replay_journal(
        journal_path(target, config, run_dir)
    ).segments()
    assert len(killed_segment) == kill_after
    committed_before = sum(1 for e in killed_segment if e.event == EVENT_COMMIT)
    assert committed_before < reference.units

    # Only uncommitted units re-executed — read it off the journal itself.
    begins = sum(1 for e in resume_segment if e.event == EVENT_BEGIN)
    assert begins == report.recomputed == reference.units - committed_before
    assert report.skipped == committed_before
    if target == "pipeline":
        skips = sum(1 for e in resume_segment if e.event == EVENT_SKIP)
        assert skips == len(resumed.skipped_stages) == committed_before
    else:
        assert resumed.batches_executed == reference.units - committed_before
    if target == "stream":
        # The resumed run's exports match the resumed state, accounting intact.
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["fingerprint"] == reference.fingerprint["state"]
        state = resumed.state
        assert state.consumed == state.applied + state.deduped + state.dead_lettered


def _killed_pipeline(tmp_path, seed: int, kill_after: int):
    config = _config("pipeline", seed)
    run_dir = tmp_path / "run"
    killed = spawn_killed("pipeline", config, run_dir, kill_after)
    assert killed.returncode == -signal.SIGKILL, killed.stderr[-500:]
    return config, run_dir


def test_torn_checkpoint_is_quarantined_and_recomputed(references, tmp_path):
    config, run_dir = _killed_pipeline(tmp_path, 0, 8)
    payloads = sorted(run_dir.rglob("*.pkl"), key=lambda p: p.stat().st_size)
    victim = payloads[-1]
    tear_file(victim, victim.stat().st_size // 2)

    result = run_target("pipeline", config, run_dir, resume=True)
    expected = references("pipeline", 0).fingerprint
    assert run_fingerprint("pipeline", result, run_dir) == expected
    # Corruption is priced, never silent.
    assert list(ArtifactCache(run_dir).quarantine_root.rglob("*.reason"))


def test_torn_journal_tail_is_dropped_and_resumed(references, tmp_path):
    config, run_dir = _killed_pipeline(tmp_path, 1, 5)
    journal = journal_path("pipeline", config, run_dir)
    tear_file(journal, -9)  # shear the final record mid-line

    assert replay_journal(journal).dropped == 1
    result = run_target("pipeline", config, run_dir, resume=True)
    expected = references("pipeline", 1).fingerprint
    assert run_fingerprint("pipeline", result, run_dir) == expected


def test_midfile_journal_corruption_refuses_resume(tmp_path):
    config, run_dir = _killed_pipeline(tmp_path, 2, 5)
    journal = journal_path("pipeline", config, run_dir)
    lines = journal.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:15] + "\n"
    journal.write_text("".join(lines))

    with pytest.raises(JournalError, match="corrupt journal record"):
        run_target("pipeline", config, run_dir, resume=True)


#: Every name a kill target calls ``atomic_write`` by.
ATOMIC_WRITE_NAMES = (
    "repro.parallel.cache",
    "repro.recovery.fold",
    "repro.fuzzing.campaign",
    "repro.stream.ingest",
    "repro.stream.dlq",
)

#: (target, file name of the first write to fail, errno, is an export).
#: A unit write is a checkpoint, snapshot or dead letter inside a journaled
#: unit; an export is written after ``run-end``.
WRITE_FAULTS = [
    pytest.param("pipeline", "*.json", errno.ENOSPC, False, id="pipeline-sidecar-ENOSPC"),
    pytest.param("pipeline", "*.pkl", errno.EIO, False, id="pipeline-payload-EIO"),
    pytest.param("fuzz", "state-*.json", errno.ENOSPC, False, id="fuzz-snapshot-ENOSPC"),
    pytest.param("fuzz", "coverage.json", errno.EIO, True, id="fuzz-export-EIO"),
    pytest.param("stream", "batch-*.jsonl", errno.ENOSPC, False, id="stream-dead-letter-ENOSPC"),
    pytest.param("stream", "state-*.json", errno.EIO, False, id="stream-snapshot-EIO"),
    pytest.param("stream", "summary.json", errno.ENOSPC, True, id="stream-export-ENOSPC"),
]


class _FailingWrite:
    """``atomic_write`` whose first write to a file named like ``pattern``
    dies with ``OSError(code)`` halfway through its tmp file."""

    def __init__(self, pattern: str, code: int) -> None:
        self.pattern = pattern
        self.code = code
        self.calls = 0
        self.failed = None  # (k, final path, tmp path) of the failed call

    def __call__(self, path, data) -> None:
        self.calls += 1
        if self.failed is not None or not fnmatch(path.name, self.pattern):
            atomic_write(path, data)
            return

        if callable(data):  # the streaming form: take what it would write
            buffer = io.StringIO()
            data(buffer)
            data = buffer.getvalue()

        def write_half(handle) -> None:
            payload = data.encode("utf-8") if isinstance(data, str) else data
            handle.flush()
            handle.buffer.write(payload[: len(payload) // 2])
            handle.buffer.flush()
            self.failed = (self.calls, path, Path(handle.name))
            raise OSError(self.code, os.strerror(self.code), str(path))

        atomic_write(path, write_half)


@pytest.mark.parametrize(("target", "pattern", "code", "export"), WRITE_FAULTS)
def test_failed_write_fails_loudly_and_resumes(
    references, tmp_path, monkeypatch, target, pattern, code, export
):
    seed = FUZZ_CONFIG.seed if target == "fuzz" else 0
    config = _config(target, seed)
    run_dir = tmp_path / "run"
    fault = _FailingWrite(pattern, code)
    with monkeypatch.context() as patch:
        for module in ATOMIC_WRITE_NAMES:
            patch.setattr(f"{module}.atomic_write", fault)
        with pytest.raises(OSError) as raised:
            run_target(target, config, run_dir)
    assert raised.value.errno == code
    assert fault.failed is not None, f"no write matched {pattern!r}"
    k, failed, tmp = fault.failed
    assert not tmp.exists(), f"write {k} left {tmp.name}"
    assert list(run_dir.rglob("*.tmp")) == []
    replay = replay_journal(journal_path(target, config, run_dir))
    if export:
        assert replay.completed
        assert not failed.exists(), f"write {k} published {failed.name}"
    else:
        assert not replay.completed
        assert replay.begun()[-1] not in replay.committed(), f"write {k}"

    resumed = run_target(target, config, run_dir, resume=True)
    assert run_fingerprint(target, resumed, run_dir) == references(target, seed).fingerprint
    assert list(run_dir.rglob("*.tmp")) == []
    if target == "stream":
        entries = DeadLetterQueue(run_dir / "dlq").entries()
        assert entries and all(entry.reason for entry in entries)


#: (target, event, which of its appends fails, errno).  ``EIO``: the
#: append's fsync fails after a whole line is written; ``ENOSPC``: its write
#: dies halfway through the line.
APPEND_FAULTS = [
    pytest.param("pipeline", EVENT_COMMIT, 1, errno.EIO, id="pipeline-commit-fsync-EIO"),
    pytest.param("pipeline", EVENT_BEGIN, 2, errno.ENOSPC, id="pipeline-begin-ENOSPC"),
    pytest.param("fuzz", EVENT_COMMIT, 1, errno.EIO, id="fuzz-commit-fsync-EIO"),
    pytest.param("fuzz", EVENT_COMMIT, 2, errno.ENOSPC, id="fuzz-commit-ENOSPC"),
    pytest.param("stream", EVENT_COMMIT, 1, errno.EIO, id="stream-commit-fsync-EIO"),
    pytest.param("stream", EVENT_BEGIN, 3, errno.ENOSPC, id="stream-begin-ENOSPC"),
]

_append = RunJournal.append


class _HalfWrite:
    """A journal handle whose write lands half its bytes, then fails."""

    def __init__(self, handle, code: int) -> None:
        self.handle = handle
        self.code = code

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(self.code, os.strerror(self.code))

    def __getattr__(self, name):
        return getattr(self.handle, name)


class _FailingAppend:
    """``RunJournal.append`` whose ``nth`` append of ``event`` fails with
    ``OSError(code)``: in its fsync for ``EIO``, halfway through writing
    the line for ``ENOSPC``."""

    def __init__(self, event: str, nth: int, code: int) -> None:
        self.event = event
        self.nth = nth
        self.code = code
        self.seen = 0
        self.failed = None  # (journal, its bytes before the failed append)

    def __call__(self, journal, event, **fields):
        if event == self.event and self.failed is None:
            self.seen += 1
            if self.seen == self.nth:
                self.failed = (journal, journal.path.read_bytes())
                return self._fail(journal, event, fields)
        return _append(journal, event, **fields)

    def _fail(self, journal, event, fields):
        real_fsync, real_handle = os.fsync, journal._handle

        def fsync_fails_once(fd):
            os.fsync = real_fsync
            raise OSError(self.code, os.strerror(self.code))

        if self.code == errno.EIO:
            os.fsync = fsync_fails_once
        else:
            journal._handle = _HalfWrite(real_handle, self.code)
        try:
            return _append(journal, event, **fields)
        finally:
            os.fsync, journal._handle = real_fsync, real_handle


@pytest.mark.parametrize(("target", "event", "nth", "code"), APPEND_FAULTS)
def test_failed_append_leaves_no_record_and_resumes(
    references, tmp_path, monkeypatch, target, event, nth, code
):
    seed = FUZZ_CONFIG.seed if target == "fuzz" else 0
    config = _config(target, seed)
    run_dir = tmp_path / "run"
    fault = _FailingAppend(event, nth, code)
    with monkeypatch.context() as patch:
        patch.setattr(RunJournal, "append", lambda journal, *a, **kw: fault(journal, *a, **kw))
        with pytest.raises(OSError) as raised:
            run_target(target, config, run_dir)
    assert raised.value.errno == code
    assert fault.failed is not None, f"no {event} #{nth} was appended"
    journal, before = fault.failed
    # The journal ends at the record before the failed append: no torn
    # tail, and no record for an append that raised.
    assert journal.path.read_bytes() == before
    assert replay_journal(journal.path).dropped == 0
    with pytest.raises(JournalError, match="closed"):
        journal.append(EVENT_BEGIN, stage="after-the-fault")

    resumed = run_target(target, config, run_dir, resume=True)
    assert run_fingerprint(target, resumed, run_dir) == references(target, seed).fingerprint
