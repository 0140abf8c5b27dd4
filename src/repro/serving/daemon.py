"""The overload-robust triage serving daemon.

A discrete-event server on the simulation clock: requests arrive via
:meth:`ServingDaemon.submit`, pass admission control, wait in *per-class*
FIFO queues (interactive ahead of batch — heavyweight lint/minimize work
can never head-of-line-block a classify), execute in kind-homogeneous
micro-batches on a single logical executor, and are delivered through a
small pool of client-delivery slots.  Every stage is an explicit
robustness decision:

* **admission** (:mod:`repro.serving.admission`) sheds early with priced
  Retry-After hints, against per-class cost budgets;
* **deadline propagation** — each request's budget drains across queueing,
  service and delivery; work whose deadline passed in queue is *cancelled*
  (EXPIRED), never computed-then-discarded;
* **micro-batching** amortizes model overhead across requests of the same
  kind (the PR-3 WorkPool runs the actual shards);
* **graceful degradation** — on breaker-open, queue pressure past the
  watermark, or a budget too small for full service, answers fall back to
  the heuristic tier before ever erroring;
* **slow-client absorption** — delivery slots are bulkheaded and, when
  hardened, a delivery timeout abandons clients that would otherwise pin
  a slot (head-of-line blocking, the paper's favorite symptom);
* **crash accountability** — an optional journaled request log
  (:mod:`repro.serving.requestlog`) records admit/complete durably so a
  restart can tell finished work from in-flight work.

``hardened=False`` disables every protection while keeping the identical
execution path — one kind-agnostic FIFO, no admission, no cancellation,
no degradation, no delivery timeout.  That is the A/B baseline the bench
collapses on purpose.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import Bulkhead
from repro.sdnsim.clock import EventScheduler
from repro.serving.admission import AdmissionController
from repro.serving.request import (
    ANSWERED,
    KIND_COSTS,
    Request,
    RequestClass,
    RequestKind,
    Response,
    ResponseStatus,
    ServiceTier,
)
from repro.taxonomy import Symptom, Trigger

#: Latency histogram buckets (simulated seconds): sub-batch service times
#: through bare-mode collapse.  Fixed here so A/B arms always share edges.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

# The hardened daemon's robustness knobs; a bare daemon uses only the
# delivery slots and the normal hold.
# Admission: queued-request cap, per-class queued-cost budgets (simulated
# seconds) and per-class slots.
QUEUE_DEPTH = 64
INTERACTIVE_CAPACITY = 12.0
BATCH_CAPACITY = 45.0
INTERACTIVE_SLOTS = 48
BATCH_SLOTS = 16
# Degradation: class pressure past this share of its capacity degrades, and
# a degraded answer costs the executor this many simulated seconds.
DEGRADE_WATERMARK = 0.5
DEGRADED_COST = 0.02 + 0.01
# The breaker in front of the full-service backend.
BREAKER_THRESHOLD = 0.5
BREAKER_WINDOW = 8
BREAKER_MIN_CALLS = 4
BREAKER_COOLDOWN = 5.0
# Delivery: client slots, the hardened delivery timeout and the hold of a
# well-behaved client (simulated seconds).
DELIVERY_SLOTS = 4
DELIVERY_TIMEOUT = 1.0
NORMAL_HOLD = 0.02


@dataclass
class _QueueEntry:
    """Mutable per-request daemon state (requests stay immutable)."""

    request: Request
    enqueued_at: float


@dataclass
class ServingStats:
    """Counter block the smoke test and bench assert over."""

    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    expired: int = 0
    completed_full: int = 0
    served_heuristic: int = 0
    errors: int = 0
    batches: int = 0
    batched_requests: int = 0
    degraded_batches: int = 0
    slow_clients_aborted: int = 0
    delivery_waits: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(sorted(self.__dict__.items()))

    @property
    def answered(self) -> int:
        return self.completed_full + self.served_heuristic


class ServingDaemon:
    """Single-node serving loop over an :class:`EventScheduler`.

    Parameters
    ----------
    scheduler:
        The simulation scheduler; all timing runs on its clock.
    backend:
        Object with ``execute_batch(kind, batch) -> BatchOutcome`` and
        ``degraded_answer(request)`` (see :mod:`repro.serving.backends`).
    hardened:
        ``False`` selects bare mode: every protection off on the same code
        path (single unbounded FIFO, no admission, no deadline
        cancellation, no degradation, no breaker, no delivery timeout) —
        the honest A/B baseline.
    ledger:
        Shared resilience ledger; every shed/expired/degraded decision is
        priced into it.
    request_log:
        Optional journaled request log for crash-restart accounting.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        backend: Any,
        *,
        hardened: bool = True,
        ledger: ResilienceLedger | None = None,
        request_log: Any = None,
    ) -> None:
        self.scheduler = scheduler
        self.clock = scheduler.clock
        self.backend = backend
        self.hardened = hardened
        self.ledger = ledger if ledger is not None else ResilienceLedger()
        self.request_log = request_log
        self.stats = ServingStats()
        self.responses: list[Response] = []
        # Live metrics, stamped by the simulation clock so two same-seed
        # runs export byte-identical JSONL.  Pure observation: nothing in
        # the serving path reads these back.
        self.metrics = MetricsRegistry(clock=lambda: self.clock.now)
        self._m_requests = self.metrics.counter(
            "serving_requests_total",
            "Terminal responses by kind and status",
            labels=["kind", "status"],
        )
        self._m_shed = self.metrics.counter(
            "serving_shed_total", "Requests rejected at admission"
        )
        self._m_expired = self.metrics.counter(
            "serving_expired_total", "Requests cancelled in queue past deadline"
        )
        self._m_degraded = self.metrics.counter(
            "serving_degraded_total",
            "Degraded answers by fallback tier",
            labels=["tier"],
        )
        self._m_batches = self.metrics.counter(
            "serving_batches_total",
            "Executed micro-batches by service mode",
            labels=["mode"],
        )
        self._m_queue_depth = self.metrics.gauge(
            "serving_queue_depth",
            "Requests waiting, per class queue",
            labels=["klass"],
        )
        self._m_latency = self.metrics.histogram(
            "serving_latency_seconds",
            "Arrival-to-delivery latency of answered requests, per class",
            labels=["klass"],
            buckets=LATENCY_BUCKETS,
        )
        self._queues: dict[RequestClass, deque[_QueueEntry]] = {
            RequestClass.INTERACTIVE: deque(),
            RequestClass.BATCH: deque(),
        }
        self._queued_cost: dict[RequestClass, float] = {
            RequestClass.INTERACTIVE: 0.0,
            RequestClass.BATCH: 0.0,
        }
        self._busy_until = 0.0
        self._drain_scheduled = False
        self._delivery = Bulkhead(DELIVERY_SLOTS, name="delivery")
        self._delivery_queue: deque[tuple[Response, Request]] = deque()
        self.admission: AdmissionController | None = None
        self.breaker: CircuitBreaker | None = None
        if hardened:
            self.admission = AdmissionController(
                max_depth=QUEUE_DEPTH,
                interactive_capacity=INTERACTIVE_CAPACITY,
                batch_capacity=BATCH_CAPACITY,
                interactive_slots=INTERACTIVE_SLOTS,
                batch_slots=BATCH_SLOTS,
                ledger=self.ledger,
            )
            self.breaker = CircuitBreaker(
                scheduler,
                name="backend",
                failure_threshold=BREAKER_THRESHOLD,
                window=BREAKER_WINDOW,
                min_calls=BREAKER_MIN_CALLS,
                cooldown=BREAKER_COOLDOWN,
                ledger=self.ledger,
            )

    # -- introspection ---------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def backlog(self) -> float:
        """Seconds until the executor frees up (0 when idle)."""
        return max(0.0, self._busy_until - self.clock.now)

    def pressure(self, klass: RequestClass) -> float:
        """Class queued-cost utilization; > watermark triggers degrade."""
        capacity = (
            INTERACTIVE_CAPACITY if klass is RequestClass.INTERACTIVE else BATCH_CAPACITY
        )
        return self._queued_cost[klass] / capacity

    def _class_for(self, request: Request) -> RequestClass:
        """Bare mode collapses everything into one FIFO — no isolation."""
        if not self.hardened:
            return RequestClass.INTERACTIVE
        return request.klass

    def _drain_ahead(self, request: Request) -> float:
        """Seconds of work that runs before this request could: the busy
        residue, plus (for batch-class work) the whole interactive queue,
        which has strict priority."""
        ahead = self.backlog
        if request.klass is RequestClass.BATCH:
            ahead += self._queued_cost[RequestClass.INTERACTIVE]
        return ahead

    # -- intake ----------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept one request at the current simulated time."""
        now = self.clock.now
        self.stats.submitted += 1
        if self.admission is not None:
            verdict = self.admission.admit(
                request,
                now=now,
                depth=self.queue_depth,
                queued_cost=self._queued_cost[request.klass],
                backlog=self._drain_ahead(request),
            )
            if not verdict.admitted:
                self.stats.shed += 1
                self._m_shed.inc()
                if self.request_log is not None:
                    self.request_log.log_shed(request, verdict.reason)
                self._finalize(
                    request,
                    Response(
                        req_id=request.req_id,
                        kind=request.kind,
                        status=ResponseStatus.SHED,
                        tier=ServiceTier.NONE,
                        arrival=request.arrival,
                        completed=now,
                        retry_after=verdict.retry_after,
                        detail=verdict.reason,
                    ),
                )
                return
        self.stats.admitted += 1
        if self.request_log is not None:
            self.request_log.log_admit(request)
        klass = self._class_for(request)
        self._queues[klass].append(_QueueEntry(request, enqueued_at=now))
        self._queued_cost[klass] += request.cost().solo_cost
        self._observe_queues()
        self._schedule_drain()

    def _observe_queues(self) -> None:
        for klass, queue in self._queues.items():
            self._m_queue_depth.labels(klass=klass.value).set(len(queue))

    # -- the serving loop ------------------------------------------------------
    def _schedule_drain(self) -> None:
        if self._drain_scheduled or not self.queue_depth:
            return
        self._drain_scheduled = True
        self.scheduler.schedule_at(
            max(self.clock.now, self._busy_until), self._drain
        )

    def _drain(self) -> None:
        self._drain_scheduled = False
        if self.clock.now < self._busy_until:
            self._schedule_drain()
            return
        if self.hardened:
            self._cancel_expired()
        batch = self._form_batch()
        if not batch:
            return
        kind = batch[0].request.kind
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        degrade = self._should_degrade(kind, batch)
        self._m_batches.labels(mode="degraded" if degrade else "full").inc()
        if degrade:
            self.stats.degraded_batches += 1
            cost = DEGRADED_COST * len(batch)
        else:
            cost = KIND_COSTS[kind].batch_cost(len(batch))
        self._busy_until = self.clock.now + cost
        self.scheduler.schedule_at(
            self._busy_until,
            lambda: self._complete(kind, batch, degraded=degrade),
        )

    def _cancel_expired(self) -> None:
        """Cancel queued work whose deadline already passed: the point of
        deadline propagation is to never finish an answer nobody can use."""
        now = self.clock.now
        for klass, queue in list(self._queues.items()):
            survivors: deque[_QueueEntry] = deque()
            while queue:
                entry = queue.popleft()
                request = entry.request
                if now < request.deadline:
                    survivors.append(entry)
                    continue
                self._queued_cost[klass] -= request.cost().solo_cost
                self._release_quota(request)
                self.stats.expired += 1
                self._m_expired.inc()
                waited = now - entry.enqueued_at
                self.ledger.record(
                    ResilienceEvent.GIVE_UP,
                    "deadline",
                    time=now,
                    detail=(
                        f"request {request.req_id} ({request.kind.value}) "
                        f"expired in queue after {waited:.2f}s; cancelled"
                    ),
                    trigger=Trigger.NETWORK_EVENTS,
                    symptom=Symptom.PERFORMANCE,
                    delay=waited,
                )
                if self.request_log is not None:
                    self.request_log.log_expired(request)
                self._finalize(
                    request,
                    Response(
                        req_id=request.req_id,
                        kind=request.kind,
                        status=ResponseStatus.EXPIRED,
                        tier=ServiceTier.NONE,
                        arrival=request.arrival,
                        completed=now,
                        latency=now - request.arrival,
                        detail=f"deadline passed in queue ({waited:.2f}s queued)",
                    ),
                )
            self._queues[klass] = survivors
            self._queued_cost[klass] = max(0.0, self._queued_cost[klass])
        self._observe_queues()

    def _form_batch(self) -> list[_QueueEntry]:
        """Take up to ``max_batch`` same-kind requests from the
        highest-priority non-empty class queue, preserving arrival order
        for everything left behind."""
        for klass in (RequestClass.INTERACTIVE, RequestClass.BATCH):
            queue = self._queues[klass]
            if not queue:
                continue
            kind = queue[0].request.kind
            limit = KIND_COSTS[kind].max_batch
            batch: list[_QueueEntry] = []
            rest: deque[_QueueEntry] = deque()
            while queue:
                entry = queue.popleft()
                if entry.request.kind is kind and len(batch) < limit:
                    batch.append(entry)
                else:
                    rest.append(entry)
            self._queues[klass] = rest
            for entry in batch:
                self._queued_cost[klass] -= entry.request.cost().solo_cost
            self._queued_cost[klass] = max(0.0, self._queued_cost[klass])
            self._observe_queues()
            return batch
        return []

    def _should_degrade(self, kind: RequestKind, batch: list[_QueueEntry]) -> bool:
        if not self.hardened:
            return False
        if self.breaker is not None and not self.breaker.allow():
            self._price_degradation(batch, "breaker open")
            return True
        klass = batch[0].request.klass
        if self.pressure(klass) > DEGRADE_WATERMARK:
            self._price_degradation(
                batch, f"{klass.value} pressure {self.pressure(klass):.2f}"
            )
            return True
        # Budget pressure: if the batch would blow its tightest remaining
        # deadline at full cost, degrade instead of expiring.
        full_cost = KIND_COSTS[kind].batch_cost(len(batch))
        tightest = min(e.request.deadline for e in batch) - self.clock.now
        if full_cost > tightest:
            self._price_degradation(batch, "budget pressure")
            return True
        return False

    def _price_degradation(self, batch: list[_QueueEntry], cause: str) -> None:
        self.ledger.record(
            ResilienceEvent.DEGRADATION,
            "degrade",
            time=self.clock.now,
            detail=f"{len(batch)} request(s) degraded: {cause}",
            trigger=Trigger.EXTERNAL_CALLS,
            symptom=Symptom.PERFORMANCE,
        )

    # -- completion ------------------------------------------------------------
    def _complete(
        self, kind: RequestKind, batch: list[_QueueEntry], *, degraded: bool
    ) -> None:
        if degraded:
            for entry in batch:
                self._serve_degraded(entry)
        else:
            outcome = self.backend.execute_batch(
                kind, [entry.request for entry in batch]
            )
            for entry, value, error in zip(batch, outcome.values, outcome.errors):
                if error is None:
                    self._record_backend(success=True)
                    self._serve_full(entry, value)
                else:
                    self._record_backend(success=False)
                    if self.hardened:
                        self._serve_degraded(entry, primary_error=error)
                    else:
                        self._serve_error(entry, error)
        self._schedule_drain()

    def _record_backend(self, *, success: bool) -> None:
        if self.breaker is None:
            return
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure(
                trigger=Trigger.EXTERNAL_CALLS, symptom=Symptom.FAIL_STOP
            )

    def _serve_full(self, entry: _QueueEntry, value: Any) -> None:
        request = entry.request
        self.stats.completed_full += 1
        self._release_quota(request)
        self._deliver(
            request,
            Response(
                req_id=request.req_id,
                kind=request.kind,
                status=ResponseStatus.OK,
                tier=ServiceTier.FULL,
                value=value,
                arrival=request.arrival,
            ),
        )

    def _serve_degraded(self, entry: _QueueEntry, primary_error: str = "") -> None:
        """Heuristic tier, then error — never silently."""
        request = entry.request
        self._release_quota(request)
        try:
            value = self.backend.degraded_answer(request)
        except Exception as exc:  # noqa: BLE001 - the degradation boundary
            self._serve_error(
                entry, primary_error or f"{type(exc).__name__}: {exc}",
                quota_released=True,
            )
            return
        self.stats.served_heuristic += 1
        self._m_degraded.labels(tier="heuristic").inc()
        self._deliver(
            request,
            Response(
                req_id=request.req_id,
                kind=request.kind,
                status=ResponseStatus.DEGRADED,
                tier=ServiceTier.HEURISTIC,
                value=value,
                arrival=request.arrival,
                detail=primary_error or "heuristic fallback",
            ),
        )

    def _serve_error(
        self, entry: _QueueEntry, error: str, *, quota_released: bool = False
    ) -> None:
        request = entry.request
        if not quota_released:
            self._release_quota(request)
        self.stats.errors += 1
        self._deliver(
            request,
            Response(
                req_id=request.req_id,
                kind=request.kind,
                status=ResponseStatus.ERROR,
                tier=ServiceTier.NONE,
                arrival=request.arrival,
                detail=error,
            ),
        )

    def _release_quota(self, request: Request) -> None:
        if self.admission is not None:
            self.admission.release(request)

    # -- delivery --------------------------------------------------------------
    def _deliver(self, request: Request, response: Response) -> None:
        """Push the response at the client through a bulkheaded slot pool."""
        if self._delivery.available > 0:
            self._start_delivery(request, response)
        else:
            self.stats.delivery_waits += 1
            self._delivery_queue.append((response, request))

    def _start_delivery(self, request: Request, response: Response) -> None:
        self._delivery.acquire()
        hold = max(request.client_hold, NORMAL_HOLD)
        if self.hardened and hold > DELIVERY_TIMEOUT:
            self.stats.slow_clients_aborted += 1
            self.ledger.record(
                ResilienceEvent.GIVE_UP,
                "delivery",
                time=self.clock.now,
                detail=(
                    f"request {request.req_id}: slow client abandoned after "
                    f"{DELIVERY_TIMEOUT:.2f}s (wanted {hold:.2f}s)"
                ),
                trigger=Trigger.EXTERNAL_CALLS,
                symptom=Symptom.PERFORMANCE,
                delay=DELIVERY_TIMEOUT,
            )
            hold = DELIVERY_TIMEOUT
        self.scheduler.schedule_at(
            self.clock.now + hold,
            lambda: self._finish_delivery(request, response),
        )

    def _finish_delivery(self, request: Request, response: Response) -> None:
        self._delivery.release()
        response.completed = self.clock.now
        response.latency = response.completed - request.arrival
        self._finalize(request, response)
        if self._delivery_queue:
            next_response, next_request = self._delivery_queue.popleft()
            self._start_delivery(next_request, next_response)

    def _finalize(self, request: Request, response: Response) -> None:
        if response.status in (ResponseStatus.SHED, ResponseStatus.EXPIRED):
            response.deadline_met = False
        else:
            response.deadline_met = response.completed <= request.deadline
        self._m_requests.labels(
            kind=request.kind.value, status=response.status.value
        ).inc()
        if response.status in ANSWERED:
            self._m_latency.labels(klass=request.klass.value).observe(
                response.latency
            )
        if self.request_log is not None and response.status not in (
            ResponseStatus.SHED, ResponseStatus.EXPIRED,
        ):
            self.request_log.log_complete(request, response)
        self.responses.append(response)

    # -- teardown --------------------------------------------------------------
    def run(self, *, until: float) -> None:
        """Drain the scheduler to ``until`` (arrivals must be scheduled)."""
        self.scheduler.run(until=until)

    def close(self) -> None:
        if self.request_log is not None:
            self.request_log.close()
