"""The lint workload's frozen input: ``src/repro`` as of commit 836a247.

The archive in ``data/`` is materialised at set-up and checked against a
stored content digest, so lint's input never follows the live tree.  The
re-lint edit appends the same code to the same modules every time.
"""

from __future__ import annotations

import hashlib
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ARCHIVE = HERE / "data" / "repro-836a247.tar.gz"
#: sha256 over ``<relative path>\0<file sha256>\n`` for every file, sorted.
TREE_DIGEST = "25b303fc54746fef9d254d8d10a86f7eaaf8e40824c114c2138c9e501102595e"

#: Modules the re-lint edit touches, relative to the snapshot root.
EDITED = (
    "src/repro/stream/ingest.py",
    "src/repro/fuzzing/campaign.py",
    "src/repro/pipeline/scaling.py",
)
#: The code appended to each edited module.
EDIT = '''

def _edited_probe(path, retries=3):
    """Appended by the benchmark's fixed re-lint edit."""
    handle = open(path, encoding="utf-8")
    for _ in range(retries):
        try:
            return handle.read()
        except Exception:
            pass
    return ""
'''


class SnapshotError(RuntimeError):
    """The frozen tree does not match its stored digest."""


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        digest.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def materialise(dest: Path, *, archive: Path = ARCHIVE, expect: str = TREE_DIGEST) -> Path:
    """Extract the frozen tree under ``dest`` and verify it; returns ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(archive, "r:gz") as tar:
        tar.extractall(dest, filter="data")
    actual = tree_digest(dest)
    if actual != expect:
        raise SnapshotError(
            f"frozen lint tree digest mismatch: expected {expect}, got {actual} "
            f"(from {archive.name})"
        )
    return dest


class Edit:
    """Applies the fixed re-lint edit in place and reverts it."""

    def __init__(self, root: Path) -> None:
        self.paths = [root / rel for rel in EDITED]
        self.original = [p.read_bytes() for p in self.paths]

    def apply(self) -> None:
        for path, data in zip(self.paths, self.original):
            path.write_bytes(data + EDIT.encode("utf-8"))

    def revert(self) -> None:
        for path, data in zip(self.paths, self.original):
            path.write_bytes(data)
