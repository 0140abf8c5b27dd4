"""Request/response model for the triage serving daemon.

A request is a *priced* unit of work: every kind carries a deterministic
cost model (simulated seconds of service time, with a batched marginal
cost below the solo cost so micro-batching amortizes overhead) and a
default deadline budget.  The daemon's admission controller reasons in
this currency — queued cost, backlog drain time, remaining budget — so a
request that cannot possibly meet its deadline is rejected while it is
still cheap to reject.

The paper's framing: SDN control planes fall over at service boundaries
under mundane overload, not exotic logic.  Making cost and deadline
first-class request fields is what lets every later layer (queue, batcher,
degrade tiers) make an explicit decision instead of an implicit one.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ServingError


class RequestKind(enum.Enum):
    """The four operations the daemon serves."""

    CLASSIFY = "classify"
    LINT = "lint"
    MINIMIZE = "minimize"
    QUERY = "query"


class RequestClass(enum.Enum):
    """Admission class: interactive traffic must not starve behind batch."""

    INTERACTIVE = "interactive"
    BATCH = "batch"


#: Which admission class each kind belongs to.
KIND_CLASS: dict[RequestKind, RequestClass] = {
    RequestKind.CLASSIFY: RequestClass.INTERACTIVE,
    RequestKind.QUERY: RequestClass.INTERACTIVE,
    RequestKind.LINT: RequestClass.BATCH,
    RequestKind.MINIMIZE: RequestClass.BATCH,
}


@dataclass(frozen=True)
class CostModel:
    """Deterministic service-time model for one request kind.

    ``overhead`` is paid once per micro-batch, ``per_item`` once per
    request in it — so a full batch of N costs ``overhead + N*per_item``
    simulated seconds while N solo requests would cost N times
    ``overhead + per_item``.  ``max_batch`` caps amortization.
    """

    overhead: float
    per_item: float
    max_batch: int = 1

    def batch_cost(self, n: int) -> float:
        if n < 1:
            return 0.0
        return self.overhead + self.per_item * n

    @property
    def solo_cost(self) -> float:
        """Admission-time estimate: the unbatched worst case."""
        return self.overhead + self.per_item


#: Simulated service-time models per kind.  Classify/query amortize well;
#: lint and minimize are heavy, unbatchable batch-class work.
KIND_COSTS: dict[RequestKind, CostModel] = {
    RequestKind.CLASSIFY: CostModel(overhead=0.25, per_item=0.05, max_batch=16),
    RequestKind.QUERY: CostModel(overhead=0.05, per_item=0.01, max_batch=32),
    RequestKind.LINT: CostModel(overhead=0.10, per_item=0.60, max_batch=1),
    RequestKind.MINIMIZE: CostModel(overhead=0.20, per_item=2.50, max_batch=1),
}

#: Default client deadline budgets (simulated seconds) per kind.
DEFAULT_BUDGETS: dict[RequestKind, float] = {
    RequestKind.CLASSIFY: 8.0,
    RequestKind.QUERY: 4.0,
    RequestKind.LINT: 15.0,
    RequestKind.MINIMIZE: 30.0,
}


class ResponseStatus(enum.Enum):
    """Terminal outcome of one request."""

    #: Full-quality answer from the primary backend.
    OK = "ok"
    #: Answer from the cheap heuristic tier.
    DEGRADED = "degraded"
    #: Rejected at admission (with a priced Retry-After hint).
    SHED = "shed"
    #: Deadline expired in queue; work was cancelled, not completed.
    EXPIRED = "expired"
    #: The backend failed and no degradation tier could answer.
    ERROR = "error"


class ServiceTier(enum.Enum):
    """Which layer actually produced the answer."""

    FULL = "full"
    HEURISTIC = "heuristic"
    NONE = "none"


#: Statuses that carry a usable answer (full or degraded quality).
ANSWERED = (ResponseStatus.OK, ResponseStatus.DEGRADED)


@dataclass(frozen=True)
class Request:
    """One unit of triage work submitted to the daemon.

    Immutable on purpose: the daemon tracks all per-request mutable state
    itself, so a trace can be replayed through any number of daemons.
    """

    req_id: int
    kind: RequestKind
    payload: Any
    arrival: float
    budget: float
    #: Simulated seconds this client takes to consume its response; slow
    #: clients (>> normal) are one of the injected fault classes.
    client_hold: float = 0.0
    #: A payload that deterministically crashes the backend.
    poison: bool = False

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ServingError(f"request {self.req_id}: budget must be > 0")
        if self.arrival < 0:
            raise ServingError(f"request {self.req_id}: arrival must be >= 0")

    @property
    def klass(self) -> RequestClass:
        return KIND_CLASS[self.kind]

    @property
    def deadline(self) -> float:
        return self.arrival + self.budget

    def cost(self) -> CostModel:
        return KIND_COSTS[self.kind]

    def payload_digest(self) -> str:
        """Stable digest of the payload — the response-cache key material."""
        try:
            canonical = json.dumps(self.payload, sort_keys=True, default=str)
        except (TypeError, ValueError):
            canonical = repr(self.payload)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Response:
    """The daemon's terminal answer for one request."""

    req_id: int
    kind: RequestKind
    status: ResponseStatus
    tier: ServiceTier
    value: Any = None
    arrival: float = 0.0
    completed: float = 0.0
    #: Seconds from arrival to delivery completion (0 for shed requests,
    #: which are answered instantly at admission).
    latency: float = 0.0
    deadline_met: bool = False
    #: Backlog-priced hint attached to SHED responses.
    retry_after: float | None = None
    detail: str = ""

    @property
    def answered(self) -> bool:
        return self.status in ANSWERED

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe form (fingerprint material)."""
        return {
            "req_id": self.req_id,
            "kind": self.kind.value,
            "status": self.status.value,
            "tier": self.tier.value,
            "value": _jsonable(self.value),
            "arrival": self.arrival,
            "completed": self.completed,
            "latency": self.latency,
            "deadline_met": self.deadline_met,
            "retry_after": self.retry_after,
            "detail": self.detail,
        }


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


@dataclass
class RequestFactory:
    """Monotonic request-id allocator for trace generators and tests."""

    next_id: int = 0

    def make(
        self,
        kind: RequestKind,
        payload: Any,
        *,
        arrival: float,
        client_hold: float = 0.0,
        poison: bool = False,
    ) -> Request:
        request = Request(
            req_id=self.next_id,
            kind=kind,
            payload=payload,
            arrival=arrival,
            budget=DEFAULT_BUDGETS[kind],
            client_hold=client_hold,
            poison=poison,
        )
        self.next_id += 1
        return request


# re-exported convenience for callers assembling batches
__all__ = [
    "ANSWERED",
    "CostModel",
    "DEFAULT_BUDGETS",
    "KIND_CLASS",
    "KIND_COSTS",
    "Request",
    "RequestClass",
    "RequestFactory",
    "RequestKind",
    "Response",
    "ResponseStatus",
    "ServiceTier",
]
