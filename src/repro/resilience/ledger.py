"""Structured accounting of every resilience action the runtime takes.

The paper's §VII complaint about fault-tolerance frameworks is that their
benefit is asserted, not measured.  The ledger makes the resilience layer
measurable: every retry, breaker trip, supervised restart, load-shed and
degradation is recorded with the simulated time it happened, the backoff or
cool-down cost it spent, and — where known — the taxonomy ``Trigger`` it was
reacting to and the ``Symptom`` it absorbed.  A/B campaigns read the ledger
to account for recovery cost alongside symptom-rate reduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.taxonomy import Symptom, Trigger


class ResilienceEvent(enum.Enum):
    """The action classes the resilience runtime can take."""

    RETRY = "retry"
    BREAKER_OPEN = "breaker_open"
    BREAKER_HALF_OPEN = "breaker_half_open"
    BREAKER_CLOSE = "breaker_close"
    SHED = "shed"
    RESTART = "restart"
    ESCALATION = "escalation"
    GIVE_UP = "give_up"
    DEGRADATION = "degradation"
    #: An invariant monitor observed a property violation (adversary runs).
    VIOLATION = "violation"


@dataclass(frozen=True)
class LedgerRecord:
    """One resilience action, tagged with the taxonomy cell it addressed."""

    time: float
    event: ResilienceEvent
    component: str
    detail: str = ""
    trigger: Trigger | None = None
    symptom: Symptom | None = None
    #: 1-based attempt number for retries/restarts (0 when not applicable).
    attempt: int = 0
    #: Backoff / cool-down seconds this action spent (the recovery cost).
    delay: float = 0.0

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-safe form; enum fields become their values."""
        return {
            "time": self.time,
            "event": self.event.value,
            "component": self.component,
            "detail": self.detail,
            "trigger": self.trigger.value if self.trigger is not None else None,
            "symptom": self.symptom.value if self.symptom is not None else None,
            "attempt": self.attempt,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LedgerRecord":
        return cls(
            time=float(data["time"]),  # type: ignore[arg-type]
            event=ResilienceEvent(data["event"]),
            component=str(data["component"]),
            detail=str(data.get("detail", "")),
            trigger=Trigger(data["trigger"]) if data.get("trigger") else None,
            symptom=Symptom(data["symptom"]) if data.get("symptom") else None,
            attempt=int(data.get("attempt", 0)),  # type: ignore[arg-type]
            delay=float(data.get("delay", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class ResilienceLedger:
    """Append-only record of resilience actions across one campaign or run."""

    records: list[LedgerRecord] = field(default_factory=list)

    def record(
        self,
        event: ResilienceEvent,
        component: str,
        *,
        time: float = 0.0,
        detail: str = "",
        trigger: Trigger | None = None,
        symptom: Symptom | None = None,
        attempt: int = 0,
        delay: float = 0.0,
    ) -> LedgerRecord:
        entry = LedgerRecord(
            time=time,
            event=event,
            component=component,
            detail=detail,
            trigger=trigger,
            symptom=symptom,
            attempt=attempt,
            delay=delay,
        )
        self.records.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def by_event(self, event: ResilienceEvent) -> list[LedgerRecord]:
        return [r for r in self.records if r.event is event]

    def count(self, event: ResilienceEvent | None = None) -> int:
        if event is None:
            return len(self.records)
        return sum(1 for r in self.records if r.event is event)

    def recovery_cost(self) -> float:
        """Total backoff/cool-down seconds spent across all actions."""
        return sum(r.delay for r in self.records)

    # -- serialization ----------------------------------------------------------
    def to_dicts(self) -> list[dict[str, object]]:
        return [record.to_dict() for record in self.records]

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dicts())

    @classmethod
    def from_dicts(cls, rows: list[dict[str, object]]) -> "ResilienceLedger":
        return cls(records=[LedgerRecord.from_dict(row) for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "ResilienceLedger":
        import json

        return cls.from_dicts(json.loads(text))

    def summary(self) -> str:
        """One-line human-readable tally."""
        parts = [
            f"{event.value}={count}"
            for event in ResilienceEvent
            if (count := self.count(event))
        ]
        return (
            f"{len(self.records)} actions "
            f"({', '.join(parts) or 'none'}), "
            f"recovery cost {self.recovery_cost():.1f}s"
        )
