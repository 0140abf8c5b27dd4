"""Deterministic kill injection for every journaled run.

Following the failure-inducing-testing line of work the paper cites, the
harness does to our runs what those tools do to SDN controllers: it
*schedules* the crash.  :func:`spawn_killed` runs one target — the
pipeline, a fuzz campaign or a stream ingestion (:data:`TARGETS`) — in a
subprocess with journaling on; the child SIGKILLs itself immediately after
the k-th journal event becomes durable (``RunJournal.on_event`` fires only
after fsync), so every kill point is reproducible — no timing races, no
signal delivery windows.  :func:`run_kill_campaign` then resumes each
killed run in-process and checks it against an uninterrupted reference
run **bit for bit** (:func:`run_fingerprint`): for the pipeline the same
accuracies, topics, confusion matrices, classifier-weight digests, and the
same sha256 for every checkpoint payload in the cache tree; for a fold the
same final state fingerprint, for fuzz the same exports, and for the
stream the same dead letters.

A second fault mode simulates *torn writes*: :func:`tear_file` truncates a
checkpoint, cache payload, or journal at an arbitrary byte offset, the way
a crashed kernel flush or interrupted copy would.  Resume must quarantine
the damage and recompute — never trust it.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.parallel.cache import QUARANTINE_DIRNAME, ArtifactCache
from repro.recovery.checkpoint import JOURNAL_DIRNAME, RecoveryError
from repro.recovery.fold import JOURNAL_FILENAME
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    JournalEvent,
    replay_journal,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.scaling import PipelineResult

#: What the kill child can run: ``run_pipeline``, ``run_campaign``, ``run_ingest``.
TARGETS = ("pipeline", "fuzz", "stream")

#: Seconds a kill child may run before it counts as hung.
_CHILD_TIMEOUT = 600.0


def run_target(
    target: str,
    config: Mapping[str, Any],
    run_dir: str | Path,
    *,
    resume: bool = False,
    on_event: Callable[[JournalEvent], None] | None = None,
) -> Any:
    """Run (or resume) one journaled target in this process.

    ``config`` is JSON: ``run_pipeline`` keyword arguments including
    ``run_id`` (``run_dir`` is then the cache root), or a
    ``FuzzConfig``/``IngestConfig`` as ``to_dict()`` gives it.
    """
    run_dir = Path(run_dir)
    if target == "pipeline":
        from repro.pipeline.scaling import run_pipeline

        kwargs = dict(config)
        run_id = kwargs.pop("run_id")
        return run_pipeline(
            cache=ArtifactCache(run_dir),
            run_id=None if resume else run_id,
            resume=run_id if resume else None,
            on_journal_event=on_event,
            **kwargs,
        )
    if target == "fuzz":
        from repro.fuzzing.campaign import FuzzConfig, run_campaign

        return run_campaign(FuzzConfig(**config), run_dir, resume=resume, on_event=on_event)
    if target == "stream":
        from repro.stream.ingest import IngestConfig, run_ingest

        return run_ingest(IngestConfig(**config), run_dir, resume=resume, on_event=on_event)
    raise RecoveryError(f"unknown kill target {target!r} (known: {', '.join(TARGETS)})")


def spawn_killed(
    target: str,
    config: Mapping[str, Any],
    run_dir: str | Path,
    kill_after: int,
) -> subprocess.CompletedProcess:
    """Run ``target`` in a subprocess that SIGKILLs itself once its k-th
    journal event is durable; ``returncode == -SIGKILL`` means it died there."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    argv = [
        sys.executable, "-m", "repro.recovery._child",
        "--target", target,
        "--run-dir", str(run_dir),
        "--config", json.dumps(dict(config)),
        "--kill-after", str(kill_after),
    ]
    return subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=_CHILD_TIMEOUT
    )


def tear_file(path: str | Path, keep_bytes: int) -> int:
    """Truncate ``path`` to ``keep_bytes`` (negative counts from the end).

    Models a torn write: the prefix survives, the suffix is gone.  Returns
    the number of bytes kept.
    """
    path = Path(path)
    data = path.read_bytes()
    if keep_bytes < 0:
        keep_bytes = len(data) + keep_bytes
    keep = max(0, min(keep_bytes, len(data)))
    path.write_bytes(data[:keep])
    return keep


def pipeline_fingerprint(result: "PipelineResult") -> dict[str, Any]:
    """Every output surface of a pipeline run, in a comparable/JSON form."""
    return {
        "seed": result.seed,
        "accuracies": result.accuracies(),
        "weights": {
            dim: report.weights_digest for dim, report in result.reports.items()
        },
        "confusion": {
            dim: report.confusion for dim, report in result.reports.items()
        },
        "topics": result.topics,
        "topic_errors": {str(k): v for k, v in result.topic_errors.items()},
        "shape": [result.n_documents, result.n_features],
    }


def cache_tree_digests(root: str | Path) -> dict[str, str]:
    """``relative payload path -> sha256`` for every checkpoint under ``root``.

    Journal and quarantine files are bookkeeping, not artifacts — excluded,
    so a killed-then-resumed tree and an uninterrupted tree compare equal
    exactly when every *stage artifact* is bit-for-bit identical.
    """
    root = Path(root)
    digests: dict[str, str] = {}
    if not root.exists():
        return digests
    for path in sorted(root.rglob("*.pkl")):
        if QUARANTINE_DIRNAME in path.parts or JOURNAL_DIRNAME in path.parts:
            continue
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def journal_path(target: str, config: Mapping[str, Any], run_dir: str | Path) -> Path:
    """Where ``target`` journals under ``run_dir``: the pipeline in its
    cache root's ``.journal/<run_id>.jsonl``, a fold in ``journal.jsonl``."""
    if target == "pipeline":
        return Path(run_dir) / JOURNAL_DIRNAME / f"{config['run_id']}.jsonl"
    return Path(run_dir) / JOURNAL_FILENAME


def run_fingerprint(target: str, result: Any, run_dir: str | Path) -> dict[str, Any]:
    """What a resumed run must reproduce bit for bit: the pipeline's outputs
    plus the sha256 of every checkpoint, or a fold's final state, plus the
    sha256 of each fuzz export or the stream's dead letters (digest, raw
    text, reason and deliveries)."""
    if target == "pipeline":
        artifacts = cache_tree_digests(run_dir)
        return {
            **pipeline_fingerprint(result),
            **{f"artifact {name}": digest for name, digest in artifacts.items()},
        }
    fingerprint = {"state": result.state.fingerprint()}
    if target == "fuzz":
        for name in ("coverage.json", "reproducers.json", "metrics.jsonl"):
            fingerprint[name] = hashlib.sha256(
                (Path(run_dir) / name).read_bytes()
            ).hexdigest()
    if target == "stream":
        from repro.stream.dlq import DeadLetterQueue

        entries = DeadLetterQueue(Path(run_dir) / "dlq").entries()
        fingerprint["dlq"] = hashlib.sha256(
            json.dumps([asdict(entry) for entry in entries], sort_keys=True).encode("utf-8")
        ).hexdigest()
    return fingerprint


@dataclass(frozen=True)
class Reference:
    """An uninterrupted run: what every killed-then-resumed run must equal."""

    result: Any
    fingerprint: dict[str, Any]
    #: ``commit`` records in its journal: the units a resume skips or redoes.
    units: int
    #: Journal events an uninterrupted run writes.
    events: int


def run_reference(
    target: str, config: Mapping[str, Any], run_dir: str | Path
) -> Reference:
    """Run ``target`` uninterrupted and read its shape off its journal."""
    result = run_target(target, config, run_dir)
    replay = replay_journal(journal_path(target, config, run_dir))
    return Reference(
        result=result,
        fingerprint=run_fingerprint(target, result, run_dir),
        units=replay.counts().get(EVENT_COMMIT, 0),
        events=len(replay.events),
    )


@dataclass
class CampaignReport:
    """One kill/tear scenario's verdict, counted the same way for every target.

    ``recomputed`` is the number of ``begin`` records in the resume
    segment of the journal, ``skipped`` the reference's units it did not
    recompute, and ``quarantined`` the ``.reason`` files under the run's
    ``.quarantine/``.
    """

    label: str
    kill_after: int
    killed: bool
    mismatches: list[str] = field(default_factory=list)
    skipped: int = 0
    recomputed: int = 0
    quarantined: int = 0

    @property
    def passed(self) -> bool:
        return self.killed and not self.mismatches

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "kill_after": self.kill_after,
            "killed": self.killed,
            "passed": self.passed,
            "mismatches": list(self.mismatches),
            "skipped": self.skipped,
            "recomputed": self.recomputed,
            "quarantined": self.quarantined,
        }


def kill_and_resume(
    target: str,
    config: Mapping[str, Any],
    run_dir: str | Path,
    kill_after: int,
    reference: Reference,
    *,
    tear: bool = False,
) -> tuple[CampaignReport, Any]:
    """SIGKILL ``target`` at its ``kill_after``-th journal event, resume it
    in-process and compare it to ``reference``.

    Returns the verdict and the resumed result (``None`` when the child did
    not die by SIGKILL).  The kill must leave exactly ``kill_after``
    durable events and no torn tail.  With ``tear=True`` the largest
    committed checkpoint is truncated before the resume, which must
    quarantine it and recompute.
    """
    run_dir = Path(run_dir)
    proc = spawn_killed(target, config, run_dir, kill_after)
    report = CampaignReport(
        label=("torn-write " if tear else "") + f"kill@{kill_after}",
        kill_after=kill_after,
        killed=proc.returncode == -signal.SIGKILL,
    )
    if not report.killed:
        report.mismatches.append(
            f"child exited {proc.returncode} instead of dying on SIGKILL: "
            f"{proc.stderr[-500:]}"
        )
        return report, None
    journal = journal_path(target, config, run_dir)
    survived = replay_journal(journal)
    if len(survived.events) != kill_after or survived.dropped:
        report.mismatches.append(
            f"kill@{kill_after} left {len(survived.events)} durable journal "
            f"events and {survived.dropped} torn"
        )
    if tear:
        _tear_largest_checkpoint(run_dir)
    resumed = run_target(target, config, run_dir, resume=True)
    expected = reference.fingerprint
    actual = run_fingerprint(target, resumed, run_dir)
    report.mismatches += [
        f"{name}: {expected.get(name)!r} != {actual.get(name)!r}"
        for name in sorted(expected.keys() | actual.keys())
        if expected.get(name) != actual.get(name)
    ]
    resume_segment = replay_journal(journal).segments()[-1]
    report.recomputed = sum(1 for e in resume_segment if e.event == EVENT_BEGIN)
    report.skipped = reference.units - report.recomputed
    report.quarantined = len(list((run_dir / QUARANTINE_DIRNAME).rglob("*.reason")))
    if tear and report.quarantined == 0:
        report.mismatches.append(
            "torn checkpoint was not quarantined (corruption went silent)"
        )
    return report, resumed


def run_kill_campaign(
    target: str,
    config: Mapping[str, Any],
    workdir: str | Path,
    kill_points: Sequence[int],
    *,
    torn_write: bool = False,
) -> tuple[Reference, list[CampaignReport]]:
    """Kill ``target`` at each journal offset, resume, and compare to the
    reference, which runs in ``workdir/reference``; each scenario gets its
    own run directory beside it.

    With ``torn_write=True`` (the pipeline, whose checkpoints are files)
    one extra scenario kills at the last offset and truncates the largest
    committed checkpoint payload before resuming.
    """
    workdir = Path(workdir)
    reference = run_reference(target, config, workdir / "reference")
    reports = [
        kill_and_resume(target, config, workdir / f"kill-{k}", k, reference)[0]
        for k in kill_points
    ]
    if torn_write:
        k = max(kill_points)
        reports.append(kill_and_resume(
            target, config, workdir / f"torn-{k}", k, reference, tear=True
        )[0])
    return reference, reports


def _tear_largest_checkpoint(cache_root: Path) -> None:
    payloads = [
        path for path in sorted(cache_root.rglob("*.pkl"))
        if QUARANTINE_DIRNAME not in path.parts
    ]
    if payloads:
        victim = max(payloads, key=lambda path: path.stat().st_size)
        tear_file(victim, victim.stat().st_size // 2)


def save_campaign_json(path: str | Path, reports: list[CampaignReport]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps([report.to_dict() for report in reports], indent=2,
                   sort_keys=True)
    )
