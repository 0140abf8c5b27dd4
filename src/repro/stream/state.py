"""Ingestion state: dedup set, bug registers, distributions — crash-safe.

Two design rules make this state *robust by construction*:

1. **Exactly-once via idempotence.**  The ``seen`` set holds the 64-bit
   canonical digest of every applied event; a delivery whose digest is
   already present is a dedup hit, not a second application.  A crash
   between "event applied" and "checkpoint committed" therefore costs
   nothing: the replayed batch re-offers the same digests and they all
   dedup away.

2. **Commutative-idempotent analytics.**  Everything derived from the
   stream — per-bug registers (last-writer-wins on the ``(at, digest)``
   total order), per-type counters over *unique* events, event-time day
   buckets for the rolling distributions — is a pure function of the *set*
   of applied events, so any permutation or duplication of the wire stream
   converges to the same :meth:`StreamState.analytics_digest`.

The full :meth:`StreamState.fingerprint` additionally covers the
order-dependent pieces (operational counters, the online learner) and is
the kill/resume bit-identity yardstick: replay order is deterministic, so
a resumed run must reproduce it exactly.

Snapshots are the :class:`~repro.recovery.fold.Snapshot` discipline the
fuzzer shares: canonical JSON, atomic writes, journaled digests verified
on load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StreamError
from repro.recovery.fold import STATE_VERSION, Snapshot
from repro.stream.events import TrackerEvent
from repro.stream.online import OnlineLinearSVM, RollingDistribution


def _empty_register() -> dict[str, Any]:
    return {
        "events": 0,
        "last_at": "",
        "last_digest": "",
        "status": None,
        "status_at": "",
        "status_digest": "",
    }


@dataclass
class StreamState(Snapshot):
    """Everything the ingestion fold reads and writes."""

    error = StreamError
    kind = "stream state"

    config: dict[str, Any]
    batch_index: int = -1  # last *committed* batch
    # -- accounting (the invariant: consumed == applied + deduped + dead_lettered,
    #    emitted == consumed + lost_upstream) ------------------------------------
    consumed: int = 0
    applied: int = 0
    deduped: int = 0
    dead_lettered: int = 0
    lost_upstream: int = 0
    # -- operational counters ----------------------------------------------------
    blocks_fetched: int = 0
    blocks_abandoned: int = 0
    retries: int = 0
    rate_limited: int = 0
    max_queue_depth: int = 0
    trained: int = 0
    # -- analytics --------------------------------------------------------------
    seen: set[int] = field(default_factory=set)
    bugs: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_type: dict[str, int] = field(default_factory=dict)
    dist: RollingDistribution = field(default_factory=RollingDistribution)
    model: OnlineLinearSVM | None = None

    # -- application ------------------------------------------------------------
    def apply(self, event: TrackerEvent, digest: int) -> None:
        """Apply one *unique* event (caller has already checked ``seen``).

        Every update here commutes: counters count unique events, registers
        take the max over the ``(at, digest)`` total order, distribution
        buckets are keyed by event time.
        """
        self.seen.add(digest)
        self.applied += 1
        self.by_type[event.event_type] = self.by_type.get(event.event_type, 0) + 1
        register = self.bugs.setdefault(event.bug_id, _empty_register())
        register["events"] += 1
        # ``digest`` is the 64-bit truncation of ``event.digest()``;
        # formatting it back avoids re-canonicalizing + re-hashing the
        # event on this hot path.
        mark = (event.at, f"{digest:016x}")
        if mark > (register["last_at"], register["last_digest"]):
            register["last_at"], register["last_digest"] = mark
        status = event.payload.get("status")
        if status is not None and mark > (
            register["status_at"], register["status_digest"]
        ):
            register["status_at"], register["status_digest"] = mark
            register["status"] = str(status)
        labels = event.payload.get("labels")
        if (
            isinstance(labels, dict)
            and "symptom" in labels
            and "root_cause" in labels
        ):
            self.dist.observe(event.at, str(labels["symptom"]), str(labels["root_cause"]))

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": STATE_VERSION,
            "config": self.config,
            "batch_index": self.batch_index,
            "consumed": self.consumed,
            "applied": self.applied,
            "deduped": self.deduped,
            "dead_lettered": self.dead_lettered,
            "lost_upstream": self.lost_upstream,
            "blocks_fetched": self.blocks_fetched,
            "blocks_abandoned": self.blocks_abandoned,
            "retries": self.retries,
            "rate_limited": self.rate_limited,
            "max_queue_depth": self.max_queue_depth,
            "trained": self.trained,
            "seen": sorted(self.seen),
            "bugs": {bug_id: self.bugs[bug_id] for bug_id in sorted(self.bugs)},
            "by_type": {key: self.by_type[key] for key in sorted(self.by_type)},
            "dist": self.dist.to_dict(),
            "model": None if self.model is None else self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StreamState":
        return cls(
            config=dict(data["config"]),
            batch_index=int(data["batch_index"]),
            consumed=int(data["consumed"]),
            applied=int(data["applied"]),
            deduped=int(data["deduped"]),
            dead_lettered=int(data["dead_lettered"]),
            lost_upstream=int(data["lost_upstream"]),
            blocks_fetched=int(data["blocks_fetched"]),
            blocks_abandoned=int(data["blocks_abandoned"]),
            retries=int(data["retries"]),
            rate_limited=int(data["rate_limited"]),
            max_queue_depth=int(data["max_queue_depth"]),
            trained=int(data["trained"]),
            seen={int(v) for v in data["seen"]},
            bugs={str(k): dict(v) for k, v in data["bugs"].items()},
            by_type={str(k): int(v) for k, v in data["by_type"].items()},
            dist=RollingDistribution.from_dict(data["dist"]),
            model=(
                None
                if data["model"] is None
                else OnlineLinearSVM.from_dict(data["model"])
            ),
        )

    def analytics_digest(self) -> str:
        """sha256 over the order/duplication-invariant projection.

        Covers exactly what is a pure function of the applied-event *set*:
        the dedup set, bug registers, per-type counts, distributions, and
        the unique-application counter.  Operational counters (``consumed``,
        ``deduped``, retries...) and the learner vary with delivery order
        and are deliberately excluded.
        """
        projection = {
            "applied": self.applied,
            "seen": sorted(self.seen),
            "bugs": {bug_id: self.bugs[bug_id] for bug_id in sorted(self.bugs)},
            "by_type": {key: self.by_type[key] for key in sorted(self.by_type)},
            "dist": self.dist.to_dict(),
        }
        payload = json.dumps(projection, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


save_state = StreamState.save
load_state = StreamState.load
