"""Journaled batch folds: ``state' = step(state, k)`` made crash-safe.

The fuzz campaign and the stream ingestion are both folds over numbered
batches whose whole state fits one JSON document.  :class:`Snapshot` is
that document's base — canonical JSON, a fingerprint, and atomic,
digest-verified save/load, all built on one stream of JSON pieces — and
:func:`fold_batches` is the loop both run: every batch is one journal
transaction (``begin`` → step → snapshot → ``commit(key, digest)`` →
prune), and a resume restores the newest committed snapshot and
continues after its ``batch_index``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO, Any, Callable, ClassVar, Iterable, Iterator, Mapping, TypeVar

from repro.errors import ReproError
from repro.parallel.cache import atomic_write
from repro.recovery.checkpoint import journaled_run
from repro.recovery.journal import EVENT_BEGIN, EVENT_COMMIT, JournalEvent, RunJournal

#: Snapshot schema version, bumped on incompatible state changes.
STATE_VERSION = 1

#: A fold's journal, under its run directory.
JOURNAL_FILENAME = "journal.jsonl"

S = TypeVar("S", bound="Snapshot")


def sha256_chunks(chunks: Iterable[str]) -> str:
    """sha256 over the UTF-8 bytes of ``chunks`` joined."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


class Snapshot:
    """A fold's whole state as one versioned, digest-verified JSON file.

    Subclasses supply ``to_dict`` (carrying ``"version": STATE_VERSION``)
    and ``from_dict``, plus the error class and noun their messages use.
    """

    error: ClassVar[type[ReproError]] = ReproError
    kind: ClassVar[str] = "state"
    #: Last batch folded into this state (-1 before the first).
    batch_index: int

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls: type[S], data: dict[str, Any]) -> S:
        raise NotImplementedError

    def _chunks(self) -> Iterator[str]:
        """The canonical JSON in pieces whose join is exactly
        ``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))``;
        a subclass may assemble them from members it keeps encoded."""
        yield json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        return "".join(self._chunks())

    def fingerprint(self) -> str:
        """sha256 over the canonical state — the bit-identity yardstick."""
        return sha256_chunks(self._chunks())

    def save(self, path: str | Path) -> str:
        """Stream the canonical JSON into an atomic write; returns the
        sha256 of its bytes, which is the :meth:`fingerprint`."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()

        def write(handle: IO[str]) -> None:
            for chunk in self._chunks():
                handle.write(chunk)
                digest.update(chunk.encode("utf-8"))

        atomic_write(path, write)
        return digest.hexdigest()

    @classmethod
    def load(cls: type[S], path: str | Path, *, expect_digest: str | None = None) -> S:
        """Load a snapshot, verifying the digest the journal promised."""
        path = Path(path)
        if not path.exists():
            raise cls.error(f"{path}: {cls.kind} snapshot does not exist")
        payload = path.read_text(encoding="utf-8")
        if expect_digest is not None:
            actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            if actual != expect_digest:
                raise cls.error(
                    f"{path}: snapshot digest mismatch (journal promised "
                    f"{expect_digest[:12]}..., found {actual[:12]}...)"
                )
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise cls.error(f"{path}: snapshot is not valid JSON: {exc}") from exc
        if data.get("version") != STATE_VERSION:
            raise cls.error(
                f"unsupported {cls.kind} version {data.get('version')!r} "
                f"(expected {STATE_VERSION})"
            )
        return cls.from_dict(data)


def restore_snapshot(
    run_dir: Path,
    committed: Mapping[str, JournalEvent],
    load_state: Callable[..., S],
) -> tuple[S, str] | None:
    """The newest committed snapshot — the highest-seq commit carrying a
    key — loaded under its journaled digest, and that digest; ``None``
    when there is none."""
    keyed = [event for event in committed.values() if event.key]
    if not keyed:
        return None
    last = max(keyed, key=lambda event: event.seq)
    return load_state(run_dir / last.key, expect_digest=last.digest), last.digest


def commit_snapshot(
    journal: RunJournal,
    run_dir: Path,
    stage: str,
    name: str,
    state: S,
    save_state: Callable[[S, Path], str],
    *,
    meta: Mapping[str, Any] | None = None,
) -> str:
    """Save ``state`` as ``name``, journal the commit, then delete every
    other ``state-*.json`` — older snapshots are dead once it is durable.
    Returns the committed digest."""
    digest = save_state(state, run_dir / name)
    journal.append(EVENT_COMMIT, stage=stage, key=name, digest=digest, meta=meta)
    for path in sorted(run_dir.glob("state-*.json")):
        if path.name != name:
            path.unlink()
    return digest


def fold_batches(
    run_dir: Path,
    run_id: str,
    *,
    resume: bool,
    config_digest: str,
    n_batches: int,
    initial: Callable[[], S],
    step: Callable[[S, int], None],
    save_state: Callable[[S, Path], str],
    load_state: Callable[..., S],
    on_event: Callable[[JournalEvent], None] | None = None,
    progress: Callable[[S, int], None] | None = None,
) -> tuple[S, int, str]:
    """Run (or resume) the fold over batches ``0 .. n_batches - 1``.

    The journal is ``run_dir/JOURNAL_FILENAME`` and batch ``k`` commits
    ``state-{k:04d}.json``.  ``save_state`` is the calling module's own
    name, looked up when the caller runs: perfbench times snapshots by
    patching that name in ``repro.fuzzing.campaign`` and
    ``repro.stream.ingest``.  Returns the final state, how many batches
    this call executed, and the state's fingerprint: the digest of its
    last commit, so a finished run's resume does not re-encode the state.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    with journaled_run(
        run_dir / JOURNAL_FILENAME,
        run_id,
        resume=resume,
        config_digest=config_digest,
        on_event=on_event,
    ) as (journal, committed):
        restored = restore_snapshot(run_dir, committed, load_state)
        if restored is None:
            state = initial()
            digest = state.fingerprint()
        else:
            state, digest = restored
        batches = range(state.batch_index + 1, n_batches)
        for k in batches:
            stage = f"batch-{k:04d}"
            journal.append(EVENT_BEGIN, stage=stage)
            step(state, k)
            digest = commit_snapshot(
                journal, run_dir, stage, f"state-{k:04d}.json", state, save_state
            )
            if progress is not None:
                progress(state, k)
    return state, len(batches), digest
