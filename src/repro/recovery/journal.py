"""Append-only, fsync'd write-ahead journal for pipeline and campaign runs.

The frameworks the paper surveys (Ravana, LegoSDN, SCL) all hinge on the
same discipline: record *intent* durably before acting, record *completion*
durably after, and on restart trust only what the log proves was finished.
The :class:`RunJournal` applies that discipline to our own long-running
work: every stage writes a ``begin`` event before computing and a ``commit``
event — carrying the stage's cache key and the sha256 digest of its
published artifact — only after the checkpoint is durably on disk.

Format: one JSON object per line.  Each record carries a monotonically
increasing ``seq`` and a ``check`` field (a truncated sha256 over the rest
of the record), so replay can tell a *torn tail* — the expected signature of
a crash mid-append, which is silently dropped — from mid-file corruption,
which is never silent and raises :class:`JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ReproError

#: Event types a journal line may carry.
EVENT_RUN_START = "run-start"
EVENT_RUN_RESUME = "run-resume"
EVENT_BEGIN = "begin"
EVENT_COMMIT = "commit"
EVENT_SKIP = "skip"
EVENT_RUN_END = "run-end"

_EVENTS = (
    EVENT_RUN_START,
    EVENT_RUN_RESUME,
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_SKIP,
    EVENT_RUN_END,
)


class JournalError(ReproError):
    """A journal could not be written, or replay found non-tail corruption."""


def _line_check(record: Mapping[str, Any]) -> str:
    payload = json.dumps(
        {k: v for k, v in record.items() if k != "check"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JournalEvent:
    """One durable journal record."""

    seq: int
    event: str
    stage: str = ""
    key: str = ""
    digest: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    def to_record(self, run_id: str) -> dict[str, Any]:
        record: dict[str, Any] = {
            "run": run_id,
            "seq": self.seq,
            "event": self.event,
            "stage": self.stage,
            "key": self.key,
            "digest": self.digest,
            "meta": dict(self.meta),
        }
        record["check"] = _line_check(record)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JournalEvent":
        return cls(
            seq=int(record["seq"]),
            event=str(record["event"]),
            stage=str(record.get("stage", "")),
            key=str(record.get("key", "")),
            digest=str(record.get("digest", "")),
            meta=dict(record.get("meta", {})),
        )


class RunJournal:
    """Append-only journal for one run id, durably flushed per event.

    ``on_event`` (if given) is invoked *after* each record is durable on
    disk — the crash harness uses it to SIGKILL the process at exactly the
    k-th journal event, knowing the log already reflects that event.

    Reopening an existing journal replays it first, or takes ``replay``, a
    parse of this file the caller already made; a torn tail is cut off
    (and the cut fsync'd) before the first append, so a new record is never
    glued onto the partial bytes of a crashed one.

    An append that fails to write or fsync its record leaves no trace of
    it: the file is cut back to where it ended before, and the journal is
    closed, so later appends raise :class:`JournalError`.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str,
        *,
        on_event: Callable[[JournalEvent], None] | None = None,
        replay: JournalReplay | None = None,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.on_event = on_event
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        if self.path.exists():
            if replay is None:
                replay = replay_journal(self.path)
            self._seq = replay.next_seq
            if replay.dropped:
                _cut(self.path, replay.intact_bytes)
        # Unbuffered, so close() never flushes the rest of a failed line.
        self._handle = self.path.open("ab", buffering=0)
        #: bytes of intact records: where a failed append is cut back to.
        self._length = self._handle.seek(0, os.SEEK_END)

    # -- writing ---------------------------------------------------------------
    def append(
        self,
        event: str,
        *,
        stage: str = "",
        key: str = "",
        digest: str = "",
        meta: Mapping[str, Any] | None = None,
    ) -> JournalEvent:
        """Durably append one event and return it."""
        if event not in _EVENTS:
            raise JournalError(f"unknown journal event {event!r}")
        if self._handle.closed:
            raise JournalError(f"{self.path}: journal is closed")
        entry = JournalEvent(
            seq=self._seq, event=event, stage=stage, key=key,
            digest=digest, meta=dict(meta or {}),
        )
        line = (json.dumps(entry.to_record(self.run_id), sort_keys=True)
                + "\n").encode("utf-8")
        try:
            written = 0
            while written < len(line):  # a short write is not an error
                written += self._handle.write(line[written:])
            os.fsync(self._handle.fileno())
        except BaseException:
            # The record may be torn, or whole but not durable: either way
            # it must not outlive the append that raised.
            self._handle.close()
            _cut(self.path, self._length)
            raise
        self._length += len(line)
        self._seq += 1
        if self.on_event is not None:
            self.on_event(entry)
        return entry

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _cut(path: Path, length: int) -> None:
    """Durably truncate ``path`` to its first ``length`` bytes."""
    with path.open("r+b") as handle:
        handle.truncate(length)
        os.fsync(handle.fileno())


@dataclass
class JournalReplay:
    """Everything a resume needs to know from a journal file."""

    path: Path
    run_id: str = ""
    events: list[JournalEvent] = field(default_factory=list)
    #: 1 when a torn final line was dropped (the crash signature), else 0.
    dropped: int = 0
    #: Byte length of the intact prefix: where the next append must start.
    intact_bytes: int = 0

    @property
    def next_seq(self) -> int:
        return self.events[-1].seq + 1 if self.events else 0

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.event] = tally.get(event.event, 0) + 1
        return tally

    def committed(self) -> dict[str, JournalEvent]:
        """Stage -> last durable ``commit``/``skip`` record for that stage.

        A ``skip`` re-asserts a prior commit (same key + digest), so a
        resume-of-a-resume still sees every finished stage.
        """
        stages: dict[str, JournalEvent] = {}
        for event in self.events:
            if event.event in (EVENT_COMMIT, EVENT_SKIP):
                stages[event.stage] = event
        return stages

    def begun(self) -> list[str]:
        """Stage names with a ``begin`` event, in first-begin order."""
        seen: list[str] = []
        for event in self.events:
            if event.event == EVENT_BEGIN and event.stage not in seen:
                seen.append(event.stage)
        return seen

    def run_config(self) -> Mapping[str, Any]:
        """``meta`` of the first ``run-start`` event (the run's identity)."""
        for event in self.events:
            if event.event == EVENT_RUN_START:
                return event.meta
        raise JournalError(f"{self.path}: journal has no run-start event")

    @property
    def completed(self) -> bool:
        return any(e.event == EVENT_RUN_END for e in self.events)

    def segments(self) -> list[list[JournalEvent]]:
        """Events grouped per attempt (run-start / run-resume boundaries)."""
        groups: list[list[JournalEvent]] = []
        for event in self.events:
            if event.event in (EVENT_RUN_START, EVENT_RUN_RESUME) or not groups:
                groups.append([])
            groups[-1].append(event)
        return groups


def replay_journal(path: str | Path) -> JournalReplay:
    """Parse a journal, dropping a torn tail but refusing silent corruption.

    The only damage an append-only, fsync'd log can legitimately show is a
    partial *final* line (the process died mid-append, or a torn write
    truncated the file).  That line is dropped and counted in ``dropped``;
    a final line missing its newline counts as torn too, since every append
    writes record and newline together.  Each line is decoded on its own,
    so a byte that is not UTF-8 damages only its line.  A bad line *before*
    the end, a checksum mismatch, or a sequence gap is real corruption and
    raises :class:`JournalError`.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"{path}: journal does not exist")
    replay = JournalReplay(path=path)
    data = path.read_bytes()
    lines = data.split(b"\n")
    # A well-formed file ends with "\n", so the final split element is empty.
    if lines and lines[-1] == b"":
        lines.pop()
    intact = 0
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        try:
            if last and not data.endswith(b"\n"):
                raise ValueError("final record has no newline")
            # A bad byte raises UnicodeDecodeError, which is a ValueError.
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            if _line_check(record) != record.get("check"):
                raise ValueError("checksum mismatch")
            event = JournalEvent.from_record(record)
        except (ValueError, KeyError, TypeError) as exc:
            if last:
                replay.dropped = 1
                break
            raise JournalError(
                f"{path}:{index + 1}: corrupt journal record mid-file: {exc}"
            ) from exc
        if event.seq != len(replay.events):
            raise JournalError(
                f"{path}:{index + 1}: sequence gap (expected "
                f"{len(replay.events)}, found {event.seq})"
            )
        if not replay.events:
            replay.run_id = str(record.get("run", ""))
        replay.events.append(event)
        intact += len(line) + 1
    if not replay.events:
        raise JournalError(f"{path}: journal holds no intact records")
    replay.intact_bytes = intact
    return replay
