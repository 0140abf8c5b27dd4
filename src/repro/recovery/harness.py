"""Deterministic kill injection for every journaled run.

Following the failure-inducing-testing line of work the paper cites, the
harness does to our runs what those tools do to SDN controllers: it
*schedules* the crash.  :func:`spawn_killed` runs one target — the
pipeline, a fuzz campaign or a stream ingestion (:data:`TARGETS`) — in a
subprocess with journaling on; the child SIGKILLs itself immediately after
the k-th journal event becomes durable (``RunJournal.on_event`` fires only
after fsync), so every kill point is reproducible — no timing races, no
signal delivery windows.  For the pipeline, :class:`CrashHarness` then
resumes the run in-process and checks the result against an uninterrupted
reference run **bit for bit**: same accuracies, topics, confusion
matrices, classifier-weight digests, and the same sha256 for every
checkpoint payload in the cache tree.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.parallel.cache import QUARANTINE_DIRNAME, ArtifactCache
from repro.recovery.checkpoint import JOURNAL_DIRNAME, RecoveryError
from repro.recovery.journal import JournalEvent, JournalReplay, replay_journal

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.scaling import PipelineResult

#: What the kill child can run: ``run_pipeline``, ``run_campaign``, ``run_ingest``.
TARGETS = ("pipeline", "fuzz", "stream")


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
    *,
    timeout: float = 600.0,
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
        argv, env=env, capture_output=True, text=True, timeout=timeout
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


@dataclass
class KilledRun:
    """Outcome of one deliberately killed pipeline subprocess."""

    run_id: str
    kill_after: int
    returncode: int
    cache_root: Path
    journal_path: Path
    stdout: str = ""
    stderr: str = ""

    @property
    def killed(self) -> bool:
        return self.returncode == -signal.SIGKILL

    def replay(self) -> JournalReplay:
        return replay_journal(self.journal_path)


class CrashHarness:
    """Kill a journaled pipeline run deterministically, then resume it.

    Each killed run gets a private cache root under ``workdir`` so kill
    points stay independent; the reference run gets its own as well.  All
    runs share one pipeline configuration (small by default — the harness
    proves *recovery*, not throughput).
    """

    def __init__(
        self,
        workdir: str | Path,
        *,
        seed: int = 0,
        jobs: int = 1,
        dimensions: Sequence[str] = ("bug_type",),
        n_topics: int = 2,
        nmf_restarts: int = 2,
        child_timeout: float = 600.0,
    ) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.jobs = jobs
        self.dimensions = tuple(dimensions)
        self.n_topics = n_topics
        self.nmf_restarts = nmf_restarts
        self.child_timeout = child_timeout

    # -- configuration ---------------------------------------------------------
    def pipeline_kwargs(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "dimensions": self.dimensions,
            "n_topics": self.n_topics,
            "nmf_restarts": self.nmf_restarts,
        }

    def stage_count(self) -> int:
        """Stages one run executes (corpus, tfidf, nmf, one per dimension)."""
        return 3 + len(self.dimensions)

    def total_events(self) -> int:
        """Journal events an uninterrupted run writes.

        ``run-start`` + (``begin`` + ``commit``) per stage + ``run-end``.
        """
        return 2 + 2 * self.stage_count()

    def journal_path(self, cache_root: Path, run_id: str) -> Path:
        return cache_root / JOURNAL_DIRNAME / f"{run_id}.jsonl"

    # -- runs ------------------------------------------------------------------
    def reference(self) -> "tuple[PipelineResult, ArtifactCache]":
        """The uninterrupted, journaled run every kill point compares to."""
        from repro.pipeline.scaling import run_pipeline

        cache = ArtifactCache(self.workdir / "reference" / "cache")
        result = run_pipeline(
            cache=cache, run_id="reference", **self.pipeline_kwargs()
        )
        return result, cache

    def run_killed(self, kill_after: int, *, run_id: str | None = None) -> KilledRun:
        """Run the pipeline in a subprocess; it SIGKILLs itself at event k."""
        run_id = run_id or f"kill-{kill_after}"
        cache_root = self.workdir / run_id / "cache"
        cache_root.mkdir(parents=True, exist_ok=True)
        proc = spawn_killed(
            "pipeline",
            {**self.pipeline_kwargs(), "run_id": run_id},
            cache_root,
            kill_after,
            timeout=self.child_timeout,
        )
        return KilledRun(
            run_id=run_id,
            kill_after=kill_after,
            returncode=proc.returncode,
            cache_root=cache_root,
            journal_path=self.journal_path(cache_root, run_id),
            stdout=proc.stdout,
            stderr=proc.stderr,
        )

    def resume(self, killed: KilledRun) -> "tuple[PipelineResult, ArtifactCache]":
        """Continue a killed run in-process from its journal."""
        from repro.pipeline.scaling import run_pipeline

        cache = ArtifactCache(killed.cache_root)
        result = run_pipeline(
            cache=cache, resume=killed.run_id, **self.pipeline_kwargs()
        )
        return result, cache

    # -- comparison ------------------------------------------------------------
    @staticmethod
    def diff(
        reference: "tuple[PipelineResult, ArtifactCache]",
        candidate: "tuple[PipelineResult, ArtifactCache]",
    ) -> list[str]:
        """Human-readable mismatches between two runs; empty means equal."""
        mismatches: list[str] = []
        ref_result, ref_cache = reference
        cand_result, cand_cache = candidate
        ref_print = pipeline_fingerprint(ref_result)
        cand_print = pipeline_fingerprint(cand_result)
        for field_name in ref_print:
            if ref_print[field_name] != cand_print[field_name]:
                mismatches.append(
                    f"{field_name}: {ref_print[field_name]!r} != "
                    f"{cand_print[field_name]!r}"
                )
        ref_tree = cache_tree_digests(ref_cache.root)
        cand_tree = cache_tree_digests(cand_cache.root)
        for name in sorted(set(ref_tree) | set(cand_tree)):
            if ref_tree.get(name) != cand_tree.get(name):
                mismatches.append(
                    f"artifact {name}: {ref_tree.get(name)} != "
                    f"{cand_tree.get(name)}"
                )
        return mismatches


@dataclass
class CampaignReport:
    """One kill/tear scenario's verdict, for the smoke CLI and bench."""

    label: str
    kill_after: int
    killed: bool
    mismatches: list[str] = field(default_factory=list)
    skipped_stages: int = 0
    recomputed_stages: int = 0
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
            "skipped_stages": self.skipped_stages,
            "recomputed_stages": self.recomputed_stages,
            "quarantined": self.quarantined,
        }


def run_kill_campaign(
    harness: CrashHarness,
    kill_points: Sequence[int],
    *,
    torn_write: bool = False,
) -> list[CampaignReport]:
    """Kill at each journal offset, resume, and compare to the reference.

    With ``torn_write=True`` one extra scenario truncates the largest
    committed checkpoint payload before resuming, asserting the quarantine
    path recovers it.
    """
    reference = harness.reference()
    reports: list[CampaignReport] = []
    for kill_after in kill_points:
        killed = harness.run_killed(kill_after)
        reports.append(_verify_resume(harness, reference, killed, torn=False))
    if torn_write:
        kill_after = max(kill_points)
        killed = harness.run_killed(kill_after, run_id=f"torn-{kill_after}")
        if killed.killed:
            _tear_largest_checkpoint(killed.cache_root)
        reports.append(_verify_resume(harness, reference, killed, torn=True))
    return reports


def _tear_largest_checkpoint(cache_root: Path) -> Path | None:
    payloads = [
        path for path in sorted(cache_root.rglob("*.pkl"))
        if QUARANTINE_DIRNAME not in path.parts
    ]
    if not payloads:
        return None
    victim = max(payloads, key=lambda path: path.stat().st_size)
    tear_file(victim, victim.stat().st_size // 2)
    return victim


def _verify_resume(
    harness: CrashHarness,
    reference: "tuple[PipelineResult, ArtifactCache]",
    killed: KilledRun,
    *,
    torn: bool,
) -> CampaignReport:
    label = ("torn-write " if torn else "") + f"kill@{killed.kill_after}"
    report = CampaignReport(
        label=label, kill_after=killed.kill_after, killed=killed.killed
    )
    if not killed.killed:
        report.mismatches.append(
            f"child exited {killed.returncode} instead of dying on SIGKILL: "
            f"{killed.stderr[-500:]}"
        )
        return report
    result, cache = harness.resume(killed)
    report.mismatches = harness.diff(reference, (result, cache))
    report.skipped_stages = len(result.skipped_stages)
    report.recomputed_stages = harness.stage_count() - len(result.skipped_stages)
    report.quarantined = cache.stats()["quarantined"]
    if torn and report.quarantined == 0:
        report.mismatches.append(
            "torn checkpoint was not quarantined (corruption went silent)"
        )
    return report


def save_campaign_json(path: str | Path, reports: list[CampaignReport]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps([report.to_dict() for report in reports], indent=2,
                   sort_keys=True)
    )
