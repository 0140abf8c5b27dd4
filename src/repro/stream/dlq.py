"""Digest-keyed dead-letter queue with ``.reason`` sidecars.

Every wire record the pipeline cannot apply lands here instead of
vanishing: the raw bytes under ``<digest>.raw`` (sha256 of the raw text,
truncated — so re-dead-lettering the same record after a crash replay
rewrites the same file, never duplicates it) and a human-readable
``<digest>.reason`` sidecar saying why.  Each file publishes atomically
(tmp + fsync + ``os.replace``), the same discipline as every other
artifact in the repo, but they are two writes, ``.raw`` first: a SIGKILL
or failed write between them leaves a ``.raw`` without its ``.reason``
(:meth:`DeadLetterQueue.entries` reads it with an empty reason).  The
batch has no commit yet, so the resumed run dead-letters the record again
and rewrites both files.

:meth:`DeadLetterQueue.entries` is the audit surface (CI uploads it on
failure); lenient replay lives in :func:`repro.stream.ingest.replay_dlq`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StreamError
from repro.parallel.cache import atomic_write


def raw_digest(raw: str) -> str:
    """The DLQ file key: truncated sha256 over the raw wire text."""
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class DLQEntry:
    """One dead-lettered record, rehydrated from disk."""

    digest: str
    raw: str
    reason: str


class DeadLetterQueue:
    """Filesystem DLQ rooted at one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def put(self, raw: str, reason: str) -> str:
        """Dead-letter ``raw``; idempotent per raw text.  Returns the key."""
        digest = raw_digest(raw)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.root / f"{digest}.raw", raw)
        atomic_write(self.root / f"{digest}.reason", reason + "\n")
        return digest

    def depth(self) -> int:
        """Distinct dead-lettered records currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.raw"))

    def entries(self) -> list[DLQEntry]:
        """Every entry, sorted by digest (deterministic audit order)."""
        if not self.root.is_dir():
            return []
        out: list[DLQEntry] = []
        for path in sorted(self.root.glob("*.raw")):
            digest = path.stem
            reason_path = path.with_suffix(".reason")
            out.append(
                DLQEntry(
                    digest=digest,
                    raw=path.read_text(encoding="utf-8"),
                    reason=(
                        reason_path.read_text(encoding="utf-8").rstrip("\n")
                        if reason_path.exists()
                        else ""
                    ),
                )
            )
        return out

    def remove(self, digest: str) -> None:
        """Drop one entry (used after a successful replay)."""
        raw_path = self.root / f"{digest}.raw"
        if not raw_path.exists():
            raise StreamError(f"{self.root}: no DLQ entry {digest!r}")
        raw_path.unlink()
        (self.root / f"{digest}.reason").unlink(missing_ok=True)
