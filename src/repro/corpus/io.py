"""JSONL serialization for labeled bug datasets (whole-file and sharded).

All writers publish *atomically*: content lands in a temporary sibling
file, is fsync'd, and replaces the destination with ``os.replace``.  An
interrupted save therefore leaves either the previous file intact or the
new one complete — never a half-written dataset that a later load would
have to guess about.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.corpus.dataset import BugDataset, LabeledBug
from repro.errors import CorpusError
from repro.parallel.cache import atomic_write
from repro.taxonomy import BugLabel
from repro.trackers.models import BugReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import WorkPool

#: Shard payload filename pattern and its manifest.
_SHARD_NAME = "shard-{index:04d}.jsonl"
_MANIFEST_NAME = "manifest.json"


def save_dataset_jsonl(dataset: BugDataset, path: str | Path) -> None:
    """Write one ``{"report": ..., "label": ...}`` JSON object per line.

    The write is atomic: readers see the old file or the new file, never a
    prefix of the new one.
    """
    path = Path(path)

    def _write(handle) -> None:
        for bug in dataset:
            record = {"report": bug.report.to_dict(), "label": bug.label.to_dict()}
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    atomic_write(path, _write)


def load_dataset_jsonl(path: str | Path) -> BugDataset:
    """Read a dataset written by :func:`save_dataset_jsonl`.

    Files are decoded as ``utf-8-sig`` so a BOM prefix (editors and
    PowerShell redirects add one) cannot corrupt the first record; any
    malformed line — including a truncated final line from an interrupted
    writer — raises :class:`CorpusError` with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"{path}: dataset file does not exist")
    bugs: list[LabeledBug] = []
    with path.open(encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                bugs.append(
                    LabeledBug(
                        report=BugReport.from_dict(record["report"]),
                        label=BugLabel.from_dict(record["label"]),
                    )
                )
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                # TypeError/AttributeError cover structurally wrong records
                # (e.g. ``{"report": null}``) whose failure otherwise
                # surfaces deep inside from_dict without the line number.
                raise CorpusError(
                    f"{path}:{line_number}: malformed dataset record: {exc}"
                ) from exc
    return BugDataset(bugs)


def save_dataset_shards(
    dataset: BugDataset, directory: str | Path, *, n_shards: int
) -> list[Path]:
    """Split ``dataset`` into ``n_shards`` contiguous JSONL shards.

    Contiguous slicing (not round-robin) means concatenating the shards in
    index order reproduces the original dataset order exactly.  A
    ``manifest.json`` records the shard layout so loads can verify
    completeness.  Shards may be empty (e.g. more shards than records) —
    an empty shard is an empty file, not a missing one.
    """
    if n_shards < 1:
        raise CorpusError("n_shards must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bugs = list(dataset)
    base, remainder = divmod(len(bugs), n_shards)
    paths: list[Path] = []
    counts: list[int] = []
    digests: list[str] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < remainder else 0)
        shard = BugDataset(bugs[start:start + size])
        start += size
        path = directory / _SHARD_NAME.format(index=index)
        save_dataset_jsonl(shard, path)
        paths.append(path)
        counts.append(size)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    manifest = {
        "n_shards": n_shards,
        "counts": counts,
        "total": len(bugs),
        "shards": [p.name for p in paths],
        # Per-shard content digests: loads verify bytes, not just record
        # counts, so a bit-flipped or hand-edited shard is refused by name
        # instead of silently feeding a corrupted dataset downstream.
        "digests": digests,
    }
    # The manifest is published last and atomically: a crash mid-layout
    # leaves either the previous manifest (still describing a complete old
    # layout) or no manifest — load_dataset_shards never sees a manifest
    # pointing at shards that were not fully written before it.
    atomic_write(directory / _MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True))
    return paths


def load_dataset_shards(
    directory: str | Path, *, pool: "WorkPool | None" = None
) -> BugDataset:
    """Reassemble a dataset written by :func:`save_dataset_shards`.

    Shards load independently (optionally through a
    :class:`~repro.parallel.WorkPool`) and are concatenated in manifest
    order, so the result is identical for any worker count.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.exists():
        raise CorpusError(f"{directory}: missing shard manifest {_MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
        shard_names = list(manifest["shards"])
        counts = list(manifest["counts"])
        total = int(manifest["total"])
        # Older manifests carry no digests; loads of those skip byte
        # verification (count checks still apply) instead of refusing.
        digests = [str(d) for d in manifest.get("digests", [])]
    except (KeyError, ValueError, TypeError) as exc:
        raise CorpusError(f"{manifest_path}: malformed manifest: {exc}") from exc
    paths = []
    for index, name in enumerate(shard_names):
        path = directory / name
        if not path.exists():
            raise CorpusError(
                f"{path}: shard file is missing but {manifest_path.name} "
                f"entry shards[{index}] ({name!r}) lists it"
            )
        if index < len(digests):
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != digests[index]:
                raise CorpusError(
                    f"{path}: shard digest mismatch — {manifest_path.name} "
                    f"entry digests[{index}] promises "
                    f"{digests[index][:12]}..., file hashes {actual[:12]}..."
                )
        paths.append(path)
    if pool is None:
        shards = [load_dataset_jsonl(path) for path in paths]
    else:
        shards = pool.map(load_dataset_jsonl, paths)
    for path, shard, expected in zip(paths, shards, counts):
        if len(shard) != expected:
            raise CorpusError(
                f"{path}: shard holds {len(shard)} records, manifest says {expected}"
            )
    bugs = [bug for shard in shards for bug in shard]
    if len(bugs) != total:
        raise CorpusError(
            f"{directory}: reassembled {len(bugs)} records, manifest says {total}"
        )
    return BugDataset(bugs)
