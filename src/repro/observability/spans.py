"""Span tracing derived from the PR-4 run journal.

The journal is already a trace: every stage durably records *intent*
(``begin``) before computing and *completion* (``commit``/``skip``)
after, and every attempt opens with ``run-start``/``run-resume``.  This
module makes that structure first-class — OpenTelemetry-shaped spans
with explicit parent ids — without asking any subsystem to emit a second
event stream that could drift from the WAL.

Two entry points:

* :class:`SpanBuilder` consumes :class:`~repro.recovery.journal.JournalEvent`
  records one at a time, so it plugs straight into ``RunJournal``'s
  post-fsync ``on_event`` hook for live tracing;
* :func:`spans_from_journal` replays a journal file (or an existing
  :class:`~repro.recovery.journal.JournalReplay`) through a builder —
  the offline path the ``repro metrics`` report uses.

The time axis is the journal's ``seq`` number, not wall time: journal
records deliberately carry no clock (wall time would break bit-identical
resume), so span start/end are event ordinals and ``duration`` counts
durable events inside the span.  Crash-truncated work is visible, not
dropped: a ``begin`` with no terminal record before the next attempt (or
end of log) closes as ``status="truncated"`` — exactly the in-flight
window a resume must re-execute.

Mapping (journal event -> span effect):

================  ==========================================================
``run-start``     opens root span ``run`` (attempt 0)
``run-resume``    truncates any open spans, opens root ``run`` (attempt n)
``begin``         opens stage span, parent = current root
``commit``        closes the stage's open span with ``status="ok"``
``skip``          closes the stage's open span as ``skipped``; with no
                  open ``begin`` it records an instantaneous ``skipped``
                  span (resume re-assertions, shed/expired requests)
``run-end``       closes the root with ``status="ok"``
end of journal    any still-open span closes as ``truncated``
================  ==========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    EVENT_SKIP,
    JournalEvent,
    JournalReplay,
    replay_journal,
)

#: Terminal statuses a span may carry.
STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_TRUNCATED = "truncated"
STATUS_OPEN = "open"

KIND_RUN = "run"
KIND_STAGE = "stage"


@dataclass(frozen=True)
class Span:
    """One unit of journaled work, with an explicit parent id.

    ``start``/``end`` are journal sequence numbers (the WAL's only
    honest time axis); ``end`` is ``None`` while the span is open or
    when a crash truncated it before a terminal record.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    start: int
    end: int | None
    status: str
    attempt: int
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int | None:
        """Durable events spanned, or ``None`` if never closed."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attempt": self.attempt,
            "attrs": dict(self.attrs),
        }


def _span_id(trace_id: str, seq: int) -> str:
    """Deterministic span id: position in the WAL is identity."""
    return f"{trace_id}:{seq:06d}"


class Tracer:
    """Explicit-parent span recorder for code that isn't journal-backed.

    A minimal manual API (``start``/``end``) over the same :class:`Span`
    shape, clocked by span count, so traces stay deterministic without a
    wall clock.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._ticks = 0
        self._ids = 0
        self._finished: list[Span] = []
        self._open: dict[str, Span] = {}

    def start(
        self,
        name: str,
        *,
        parent_id: str | None = None,
        kind: str = KIND_STAGE,
        attrs: Mapping[str, Any] | None = None,
    ) -> Span:
        start = self._ticks
        self._ticks += 1
        self._ids += 1
        span = Span(
            trace_id=self.trace_id,
            span_id=_span_id(self.trace_id, self._ids - 1),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=start,
            end=None,
            status=STATUS_OPEN,
            attempt=0,
            attrs=dict(attrs or {}),
        )
        self._open[span.span_id] = span
        return span

    def end(self, span: Span) -> Span:
        if span.span_id not in self._open:
            raise ObservabilityError(
                f"span {span.span_id} is not open in this tracer"
            )
        end = self._ticks
        self._ticks += 1
        closed = replace(span, end=end, status=STATUS_OK)
        del self._open[span.span_id]
        self._finished.append(closed)
        return closed

    def finished(self) -> list[Span]:
        return sorted(self._finished, key=lambda s: (s.start, s.span_id))


class SpanBuilder:
    """Incremental journal-event -> span converter.

    Feed it events in order (e.g. as a ``RunJournal`` ``on_event`` hook);
    ``spans()`` returns finished plus still-open spans at any point.  The
    builder never mutates already-finished spans, so live consumers can
    stream ``finished`` safely.
    """

    def __init__(self, trace_id: str = "") -> None:
        self.trace_id = trace_id
        self.attempt = -1
        self._root: Span | None = None
        self._open_stages: dict[str, Span] = {}
        self._finished: list[Span] = []
        self._last_seq = -1

    # -- feeding ---------------------------------------------------------------
    def feed(self, event: JournalEvent) -> None:
        """Consume one journal event (usable directly as ``on_event``)."""
        self._last_seq = event.seq
        if event.event in (EVENT_RUN_START, EVENT_RUN_RESUME):
            self._truncate_open(event.seq)
            self.attempt += 1
            self._root = Span(
                trace_id=self.trace_id,
                span_id=_span_id(self.trace_id, event.seq),
                parent_id=None,
                name="run",
                kind=KIND_RUN,
                start=event.seq,
                end=None,
                status=STATUS_OPEN,
                attempt=self.attempt,
                attrs={"event": event.event, **dict(event.meta)},
            )
        elif event.event == EVENT_BEGIN:
            span = Span(
                trace_id=self.trace_id,
                span_id=_span_id(self.trace_id, event.seq),
                parent_id=self._root.span_id if self._root else None,
                name=event.stage,
                kind=KIND_STAGE,
                start=event.seq,
                end=None,
                status=STATUS_OPEN,
                attempt=max(self.attempt, 0),
                attrs=_stage_attrs(event),
            )
            self._open_stages[event.stage] = span
        elif event.event in (EVENT_COMMIT, EVENT_SKIP):
            status = STATUS_OK if event.event == EVENT_COMMIT else STATUS_SKIPPED
            open_span = self._open_stages.pop(event.stage, None)
            if open_span is not None:
                self._finish(
                    replace(
                        open_span,
                        end=event.seq,
                        status=status,
                        attrs={**open_span.attrs, **_stage_attrs(event)},
                    )
                )
            else:
                # Terminal with no begin: a resume re-assertion or a
                # shed/expired request — an instantaneous skipped span.
                self._finish(
                    Span(
                        trace_id=self.trace_id,
                        span_id=_span_id(self.trace_id, event.seq),
                        parent_id=self._root.span_id if self._root else None,
                        name=event.stage,
                        kind=KIND_STAGE,
                        start=event.seq,
                        end=event.seq,
                        status=STATUS_SKIPPED,
                        attempt=max(self.attempt, 0),
                        attrs=_stage_attrs(event),
                    )
                )
        elif event.event == EVENT_RUN_END:
            self._truncate_open(event.seq, stages_only=True)
            if self._root is not None:
                self._finish(
                    replace(
                        self._root,
                        end=event.seq,
                        status=STATUS_OK,
                        attrs={**self._root.attrs, **dict(event.meta)},
                    )
                )
                self._root = None
        else:  # pragma: no cover - journal validates event types upstream
            raise ObservabilityError(f"unknown journal event {event.event!r}")

    def _stage_truncated(self, span: Span) -> Span:
        return replace(span, status=STATUS_TRUNCATED)

    def _truncate_open(self, seq: int, *, stages_only: bool = False) -> None:
        """Close everything still open as crash-truncated (``end=None``)."""
        for stage in sorted(self._open_stages):
            self._finish(self._stage_truncated(self._open_stages[stage]))
        self._open_stages.clear()
        if not stages_only and self._root is not None:
            self._finish(replace(self._root, status=STATUS_TRUNCATED))
            self._root = None

    def _finish(self, span: Span) -> None:
        self._finished.append(span)

    # -- reading ---------------------------------------------------------------
    def finish(self) -> list[Span]:
        """Seal the trace: open work becomes truncated; returns all spans."""
        self._truncate_open(self._last_seq)
        return self.spans()

    def spans(self) -> list[Span]:
        """Finished spans plus any still-open ones, ordered by start seq."""
        live = [self._open_stages[s] for s in sorted(self._open_stages)]
        if self._root is not None:
            live.append(self._root)
        return sorted(
            self._finished + live, key=lambda s: (s.start, s.span_id)
        )


def spans_from_journal(source: str | Path | JournalReplay) -> list[Span]:
    """Reconstruct the span tree of a journal file or replay.

    The journal's torn-tail handling applies (a partial final line is
    dropped before derivation), so the same physical file yields the
    same spans before a crash and after a resume appended to it — the
    bit-identical-resume property, lifted to traces.
    """
    if isinstance(source, JournalReplay):
        replay = source
    else:
        replay = replay_journal(source)
    builder = SpanBuilder(replay.run_id)
    for event in replay.events:
        builder.feed(event)
    return builder.finish()


def spans_to_jsonl(spans: list[Span]) -> str:
    """Canonical one-object-per-line serialization (golden-testable)."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
        + "\n"
        for span in spans
    )


def _stage_attrs(event: JournalEvent) -> dict[str, Any]:
    attrs: dict[str, Any] = dict(event.meta)
    if event.key:
        attrs["key"] = event.key
    if event.digest:
        attrs["digest"] = event.digest
    return attrs
