"""A/B overload harness: hardened daemon vs. bare daemon, same trace.

Both arms run the *identical* daemon code path over the identical seeded
trace on fresh schedulers; the only difference is ``ServingDaemon``'s ``hardened``
(bare = unbounded queue, no deadline cancellation, no degradation, no
breaker, no delivery timeout).  The report computes the metrics the bench
gates on:

* **goodput** — deadline-met answered responses per second, weighted so a
  degraded answer counts half (degrading everything cannot game the gate);
* **p99 latency** over answered responses;
* **accounting** — every shed/expired request must carry a priced ledger
  entry (nothing vanishes silently);
* **fingerprint** — sha256 over the canonical response stream, equal
  across same-seed runs (the determinism gate).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.observability.instrument import ledger_to_metrics
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.sdnsim.clock import EventScheduler
from repro.serving.daemon import ServingDaemon
from repro.serving.request import Response, ResponseStatus
from repro.serving.traffic import TrafficConfig, generate_trace, replay

#: Goodput weight per answered status: full answers count 1, degraded ½.
GOODPUT_WEIGHTS = {
    ResponseStatus.OK: 1.0,
    ResponseStatus.DEGRADED: 0.5,
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q out of range: {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * int(q * 100) // 10000))
    return ordered[min(rank, len(ordered)) - 1]


def goodput(responses: list[Response], duration: float) -> float:
    """Weighted deadline-met answers per simulated second."""
    if duration <= 0:
        return 0.0
    score = sum(
        GOODPUT_WEIGHTS[r.status]
        for r in responses
        if r.status in GOODPUT_WEIGHTS and r.deadline_met
    )
    return score / duration


def fingerprint(responses: list[Response]) -> str:
    """sha256 over the canonical response stream, id-ordered."""
    canon = [r.to_dict() for r in sorted(responses, key=lambda r: r.req_id)]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ArmReport:
    """Metrics for one arm of the A/B run."""

    name: str
    goodput: float
    p50: float
    p99: float
    answered: int
    deadline_met: int
    status_counts: dict[str, int]
    stats: dict[str, int]
    ledger_events: dict[str, int]
    unaccounted_drops: int
    fingerprint: str
    #: Full observability export (daemon metrics + ledger bridge) in the
    #: registry JSONL format.  Deliberately absent from :meth:`to_dict`
    #: so summary JSON stays small; benches write it as an artifact.
    metrics_jsonl: str = field(default="", repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "goodput": round(self.goodput, 6),
            "p50": round(self.p50, 6),
            "p99": round(self.p99, 6),
            "answered": self.answered,
            "deadline_met": self.deadline_met,
            "status_counts": self.status_counts,
            "stats": self.stats,
            "ledger_events": self.ledger_events,
            "unaccounted_drops": self.unaccounted_drops,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ABReport:
    """Both arms plus the derived comparison."""

    trace_requests: int
    duration: float
    hardened: ArmReport
    bare: ArmReport
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def goodput_ratio(self) -> float:
        if self.bare.goodput == 0:
            return float("inf") if self.hardened.goodput > 0 else 1.0
        return self.hardened.goodput / self.bare.goodput

    def to_dict(self) -> dict[str, Any]:
        ratio = self.goodput_ratio
        return {
            "trace_requests": self.trace_requests,
            "duration": self.duration,
            "goodput_ratio": None if ratio == float("inf") else round(ratio, 6),
            "hardened": self.hardened.to_dict(),
            "bare": self.bare.to_dict(),
            **self.extras,
        }


def _account_drops(
    responses: list[Response], ledger: ResilienceLedger
) -> int:
    """Dropped responses (SHED/EXPIRED) without a priced ledger entry.

    Every deliberate drop must appear in the ledger with a nonzero delay
    (its price: the Retry-After hint or the wasted queue wait).  The gate
    requires this to be zero for the hardened arm.
    """
    priced = sum(
        1
        for entry in ledger.records
        if entry.event in (ResilienceEvent.SHED, ResilienceEvent.GIVE_UP)
        and entry.component in ("admission", "deadline")
        and entry.delay > 0
    )
    dropped = sum(
        1
        for r in responses
        if r.status in (ResponseStatus.SHED, ResponseStatus.EXPIRED)
    )
    return max(0, dropped - priced)


#: Extra simulated seconds past the last arrival so queued work drains
#: (the bare arm needs a lot of it — that is the finding).
_SETTLE = 120.0


def run_arm(
    *,
    name: str,
    hardened: bool,
    backend: Any,
    traffic: TrafficConfig,
    settle: float = _SETTLE,
) -> tuple[ArmReport, ServingDaemon]:
    """Run one arm: fresh scheduler + daemon, same-seed regenerated trace."""
    trace = generate_trace(traffic)
    scheduler = EventScheduler()
    ledger = ResilienceLedger()
    daemon = ServingDaemon(scheduler, backend, hardened=hardened, ledger=ledger)
    replay(trace, daemon)
    daemon.run(until=traffic.duration + settle)
    responses = daemon.responses
    latencies = [r.latency for r in responses if r.answered]
    status_counts: dict[str, int] = {}
    for r in responses:
        status_counts[r.status.value] = status_counts.get(r.status.value, 0) + 1
    event_counts: dict[str, int] = {}
    for entry in ledger.records:
        event_counts[entry.event.value] = event_counts.get(entry.event.value, 0) + 1
    report = ArmReport(
        name=name,
        goodput=goodput(responses, traffic.duration),
        p50=percentile(latencies, 50.0),
        p99=percentile(latencies, 99.0),
        answered=sum(1 for r in responses if r.answered),
        deadline_met=sum(1 for r in responses if r.deadline_met),
        status_counts=dict(sorted(status_counts.items())),
        stats=daemon.stats.to_dict(),
        ledger_events=dict(sorted(event_counts.items())),
        unaccounted_drops=_account_drops(responses, ledger),
        fingerprint=fingerprint(responses),
    )
    # Fold the ledger's priced actions into the daemon's live registry so
    # one JSONL artifact carries the whole arm (pure post-run projection).
    ledger_to_metrics(ledger, daemon.metrics)
    report.metrics_jsonl = daemon.metrics.export_jsonl()
    return report, daemon


def run_ab(
    backend_factory: Any,
    *,
    traffic: TrafficConfig,
    settle: float = _SETTLE,
) -> ABReport:
    """Run both arms and assemble the comparison report.

    ``backend_factory`` is called once per arm so arms never share
    backend state (breaker history, caches, executed-batch logs).
    """
    trace = generate_trace(traffic)
    hardened_report, _ = run_arm(
        name="hardened",
        hardened=True,
        backend=backend_factory(),
        traffic=traffic,
        settle=settle,
    )
    bare_report, _ = run_arm(
        name="bare",
        hardened=False,
        backend=backend_factory(),
        traffic=traffic,
        settle=settle,
    )
    return ABReport(
        trace_requests=len(trace.requests),
        duration=traffic.duration,
        hardened=hardened_report,
        bare=bare_report,
    )
