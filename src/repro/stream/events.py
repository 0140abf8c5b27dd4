"""The append-only tracker event model.

Every mutation a tracker substrate can undergo is represented as one
immutable :class:`TrackerEvent`: issue created/updated/commented/closed
plus Gerrit-link events.  An event's identity is its *canonical digest* —
sha256 over the sorted-key JSON form — which is what exactly-once
application dedups on: two deliveries of the same logical event (an
upstream retry, an injected duplicate, a crash-replayed batch) collapse to
one application no matter how the wire mangled whitespace or key order.

Wire parsing is strict by default: anything that is not a complete, typed,
known-shape event raises :class:`~repro.errors.StreamError` and belongs in
the dead-letter queue.  The ``lenient`` mode is the DLQ *replay* parser:
it additionally strips transport artifacts (BOM, stray whitespace) that
strict ingestion refuses — the offline recovery logic operators run after
fixing an upstream encoding bug.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any

from repro.errors import StreamError

#: The event vocabulary, in no particular order of importance.
EVENT_TYPES = (
    "issue-created",
    "issue-updated",
    "issue-commented",
    "issue-closed",
    "gerrit-linked",
)

_TRACKERS = ("jira", "github")

#: The canonical form's encoder, built once: ``json.dumps`` with these
#: options would build an equal one for every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TrackerEvent:
    """One append-only tracker mutation.

    ``at`` is the event time as an ISO-8601 string (strings keep the
    canonical JSON form trivially stable); ``payload`` carries the
    event-type-specific fields (tokens, labels, status, change ids) and
    must be JSON-safe.
    """

    event_type: str
    tracker: str
    bug_id: str
    controller: str
    at: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "event_type": self.event_type,
            "tracker": self.tracker,
            "bug_id": self.bug_id,
            "controller": self.controller,
            "at": self.at,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrackerEvent":
        """Validated construction; raises :class:`StreamError` on any
        structural defect (the DLQ-bound class of failures)."""
        if not isinstance(data, Mapping):
            raise StreamError(f"event record must be an object, got {type(data).__name__}")
        try:
            event_type = str(data["event_type"])
            tracker = str(data["tracker"])
            bug_id = str(data["bug_id"])
            controller = str(data["controller"])
            at = str(data["at"])
            payload = data.get("payload", {})
        except KeyError as exc:
            raise StreamError(f"event record missing field {exc.args[0]!r}") from exc
        if event_type not in EVENT_TYPES:
            raise StreamError(
                f"unknown event type {event_type!r} "
                f"(known: {', '.join(EVENT_TYPES)})"
            )
        if tracker not in _TRACKERS:
            raise StreamError(f"unknown tracker {tracker!r} (known: jira, github)")
        if not bug_id:
            raise StreamError("event record has an empty bug_id")
        try:
            datetime.fromisoformat(at)
        except ValueError as exc:
            raise StreamError(f"unparseable event time {at!r}: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise StreamError(
                f"event payload must be an object, got {type(payload).__name__}"
            )
        return cls(
            event_type=event_type,
            tracker=tracker,
            bug_id=bug_id,
            controller=controller,
            at=at,
            payload=dict(payload),
        )

    # -- identity --------------------------------------------------------------
    def canonical(self) -> str:
        """The canonical wire form: sorted keys, no whitespace."""
        # The instance dict holds exactly the fields ``to_dict`` lists; it
        # is encoded as it is, without ``to_dict``'s copy of the payload.
        return _CANONICAL.encode(vars(self))

    def digest(self) -> str:
        """Truncated sha256 over the canonical form — the dedup key."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    def digest_int(self) -> int:
        """The digest as a 64-bit int, for compact in-memory dedup sets."""
        sha = hashlib.sha256(self.canonical().encode("utf-8"))
        return int.from_bytes(sha.digest()[:8], "big")


def parse_wire(text: str, *, lenient: bool = False) -> TrackerEvent:
    """Parse one wire record into a validated :class:`TrackerEvent`.

    Strict mode refuses anything that is not exactly one JSON object; the
    lenient mode (DLQ replay) first strips a UTF-8 BOM and surrounding
    whitespace — transport artifacts, not data corruption.
    """
    if lenient:
        text = text.lstrip("﻿ \t\r\n").rstrip()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise StreamError(f"wire record is not valid JSON: {exc}") from exc
    return TrackerEvent.from_dict(data)
