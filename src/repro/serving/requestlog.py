"""Journaled request accounting for the serving daemon.

A thin adapter over the :class:`~repro.recovery.journal.RunJournal`, opened
like every run journal through
:func:`~repro.recovery.checkpoint.open_run_journal`: the ``run-start``
record carries the serve run's config digest, and a fresh run over an
existing journal is refused rather than appended as a second run.  Every
admitted request appends a ``begin`` record before it can consume
backend work and a ``commit`` record with its terminal status; shed and
expired requests append ``skip`` with the reason.  After a crash,
:func:`recover` replays the journal and separates *finished* requests
(safe to report) from *in-flight* ones (admitted but never completed —
exactly the work a restarted daemon must either re-answer or explicitly
give up on, rather than silently forgetting).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.recovery.checkpoint import digest_config, open_run_journal
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_SKIP,
    replay_journal,
)
from repro.serving.request import Request, Response


def _step(req_id: int) -> str:
    return f"req-{req_id:08d}"


def _req_id(stage: str) -> int:
    return int(stage.split("-", 1)[1])


class RequestLog:
    """Durable per-request WAL: admit -> begin, terminal -> commit/skip.

    ``config`` is what the serve run is a function of; its digest is the
    journal's run identity.  An existing journal at ``path`` raises
    :class:`~repro.recovery.checkpoint.RecoveryError`.
    """

    def __init__(self, path: str | Path, config: Mapping[str, Any]) -> None:
        self.path = Path(path)
        self.journal, _ = open_run_journal(
            self.path, "serve", resume=False, config_digest=digest_config(config)
        )
        self._closed = False

    def log_admit(self, request: Request) -> None:
        self.journal.append(
            EVENT_BEGIN,
            stage=_step(request.req_id),
            key=request.payload_digest(),
            meta={
                "kind": request.kind.value,
                "arrival": request.arrival,
                "budget": request.budget,
            },
        )

    def log_complete(self, request: Request, response: Response) -> None:
        self.journal.append(
            EVENT_COMMIT,
            stage=_step(request.req_id),
            key=request.payload_digest(),
            meta={
                "status": response.status.value,
                "tier": response.tier.value,
                "latency": round(response.latency, 6),
                "deadline_met": response.deadline_met,
            },
        )

    def log_shed(self, request: Request, reason: str) -> None:
        self.journal.append(
            EVENT_SKIP,
            stage=_step(request.req_id),
            meta={"reason": f"shed: {reason}"},
        )

    def log_expired(self, request: Request) -> None:
        self.journal.append(
            EVENT_SKIP,
            stage=_step(request.req_id),
            meta={"reason": "expired in queue"},
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.journal.append(EVENT_RUN_END, meta={"status": "clean"})
        self.journal.close()


def recover(path: str | Path) -> dict[str, list[int]]:
    """Classify journaled requests after a restart.

    Returns ``{"finished": [...], "inflight": [...]}`` request ids:
    finished requests have a durable terminal record (commit or skip);
    in-flight ones were admitted (begin) but never reached a terminal
    record — the crash window's casualties, which a restarted daemon must
    handle explicitly instead of silently forgetting.
    """
    state = replay_journal(path)
    terminal = {
        stage for stage in state.committed() if stage.startswith("req-")
    }
    begun = {stage for stage in state.begun() if stage.startswith("req-")}
    return {
        "finished": sorted(_req_id(stage) for stage in sorted(terminal)),
        "inflight": sorted(
            _req_id(stage) for stage in sorted(begun - terminal)
        ),
    }
