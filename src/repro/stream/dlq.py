"""Digest-keyed dead-letter queue, one file per batch.

Every wire record the pipeline cannot apply lands here instead of
vanishing.  :meth:`DeadLetterQueue.put` records the delivery in memory;
:meth:`DeadLetterQueue.publish`, called before the batch's snapshot
commit, writes the batch's dead letters with one atomic write (tmp +
fsync + ``os.replace``) as ``batch-{k:04d}.jsonl``.  The file holds one
compact JSON line per distinct raw record, sorted by digest (sha256 of
the raw text, truncated), with its ``raw`` text, the ``reason`` it was
refused and its ``deliveries`` in the batch.  A batch with no dead
letters writes nothing.  The batch has no commit until its file is
durable, so a crash before that reruns the batch, which dead-letters the
same deliveries and rewrites the identical file.

:meth:`DeadLetterQueue.entries` merges the files, one entry per digest
with its deliveries summed, in digest order: it is the audit surface (CI
uploads it on failure); lenient replay lives in
:func:`repro.stream.ingest.replay_dlq`.  A directory that still holds
the per-record ``<digest>.raw`` files of the earlier layout is refused
when the queue is opened, not read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

from repro.errors import StreamError
from repro.parallel.cache import atomic_write


def raw_digest(raw: str) -> str:
    """The DLQ key: truncated sha256 over the raw wire text."""
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class DLQEntry:
    """One dead-lettered record and how many times it was delivered."""

    digest: str
    raw: str
    reason: str
    deliveries: int = 1


def _line(entry: DLQEntry) -> str:
    return json.dumps(asdict(entry), sort_keys=True, separators=(",", ":")) + "\n"


class DeadLetterQueue:
    """Filesystem DLQ rooted at one directory.

    Opening a directory of the earlier per-record layout raises
    :class:`StreamError`, before a run or a replay writes anything.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._batch: dict[str, DLQEntry] = {}
        if any(self.root.glob("*.raw")):
            raise StreamError(
                f"{self.root}: holds per-record <digest>.raw dead letters, a "
                "DLQ layout this version does not read (it writes one "
                "batch-NNNN.jsonl file per batch)"
            )

    def put(self, raw: str, reason: str) -> str:
        """Dead-letter one delivery of ``raw`` in the current batch; a
        repeat adds a delivery to the same entry.  Returns the key."""
        digest = raw_digest(raw)
        held = self._batch.get(digest)
        self._batch[digest] = (
            DLQEntry(digest, raw, reason)
            if held is None
            else replace(held, deliveries=held.deliveries + 1)
        )
        return digest

    def publish(self, batch: int) -> None:
        """Write the current batch's dead letters, if any, as one file."""
        if not self._batch:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.root / f"batch-{batch:04d}.jsonl",
            "".join(_line(self._batch[digest]) for digest in sorted(self._batch)),
        )
        self._batch.clear()

    def _files(self) -> list[tuple[Path, list[DLQEntry]]]:
        return [
            (path, [DLQEntry(**json.loads(line)) for line in
                    path.read_text(encoding="utf-8").splitlines()])
            for path in sorted(self.root.glob("batch-*.jsonl"))
        ]

    def entries(self) -> list[DLQEntry]:
        """Every entry on disk, deliveries summed, sorted by digest."""
        merged: dict[str, DLQEntry] = {}
        for _, entries in self._files():
            for entry in entries:
                held = merged.get(entry.digest)
                merged[entry.digest] = (
                    entry
                    if held is None
                    else replace(held, deliveries=held.deliveries + entry.deliveries)
                )
        return [merged[digest] for digest in sorted(merged)]

    def depth(self) -> int:
        """Distinct dead-lettered records currently on disk."""
        return len(self.entries())

    def remove(self, digests: Iterable[str]) -> None:
        """Drop these entries from every batch file (after a successful
        replay); a file left empty is deleted."""
        doomed = set(digests)
        files = self._files()
        missing = doomed.difference(
            entry.digest for _, entries in files for entry in entries
        )
        if missing:
            raise StreamError(f"{self.root}: no DLQ entry {min(missing)!r}")
        for path, entries in files:
            kept = [entry for entry in entries if entry.digest not in doomed]
            if len(kept) == len(entries):
                continue
            if kept:
                atomic_write(path, "".join(map(_line, kept)))
            else:
                path.unlink()
