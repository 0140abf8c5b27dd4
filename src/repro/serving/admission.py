"""Admission control for the serving daemon: reject early, price every no.

Four gates run at submit time, cheapest first, so a request that is going
to be refused is refused before it consumes queue space, backend work, or
deadline budget — the inverse of the overload anti-pattern the paper
documents (accept everything, time out everything):

1. **depth** — a hard cap on queued requests;
2. **class quota** — per-class :class:`~repro.resilience.policies.Bulkhead`
   slots, so heavyweight batch work (lint/minimize) cannot starve
   interactive traffic and vice versa;
3. **cost capacity** — a cap on *queued simulated work*, the true measure
   of backlog (ten minimize requests are not ten queries);
4. **deadline feasibility** — if the backlog drain time already exceeds
   the request's whole budget, completing it would only produce a late,
   useless answer; reject now while the client can still retry elsewhere.

Every rejection carries a Retry-After hint computed from the backlog
(seconds until the queue has drained enough to admit an equivalent
request) and is priced into the :class:`ResilienceLedger` as a SHED with
that hint as its cost, so an A/B report can account for deliberately
dropped work instead of letting it vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BulkheadFullError, ServingError
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import Bulkhead
from repro.serving.request import Request, RequestClass
from repro.taxonomy import Symptom, Trigger


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of one admission decision."""

    admitted: bool
    reason: str = ""
    retry_after: float = 0.0


class AdmissionController:
    """Bounded, class-quota'd, cost- and deadline-aware admission.

    The daemon reports queue state (``queued_cost``, ``backlog``) on every
    call; the controller owns only the policy and the per-class bulkheads.
    """

    #: Ledger component every shed is priced under.
    name = "admission"

    def __init__(
        self,
        *,
        max_depth: int,
        interactive_capacity: float,
        batch_capacity: float,
        interactive_slots: int,
        batch_slots: int,
        ledger: ResilienceLedger,
    ) -> None:
        if max_depth < 1:
            raise ServingError("max_depth must be >= 1")
        self.max_depth = max_depth
        # Per-class queued-cost budgets: a deep batch backlog must not eat
        # the capacity that admits cheap interactive work (and vice versa).
        self.capacities: dict[RequestClass, float] = {
            RequestClass.INTERACTIVE: interactive_capacity,
            RequestClass.BATCH: batch_capacity,
        }
        if any(cap <= 0 for cap in self.capacities.values()):
            raise ServingError("per-class capacities must be > 0")
        self.ledger = ledger
        self.quotas: dict[RequestClass, Bulkhead] = {
            RequestClass.INTERACTIVE: Bulkhead(
                interactive_slots, name=f"{self.name}:interactive"
            ),
            RequestClass.BATCH: Bulkhead(batch_slots, name=f"{self.name}:batch"),
        }
        self.shed_by_reason: dict[str, int] = {}

    # -- policy ---------------------------------------------------------------
    def admit(
        self,
        request: Request,
        *,
        now: float,
        depth: int,
        queued_cost: float,
        backlog: float,
    ) -> AdmissionVerdict:
        """Decide one request; on admit, a class slot is held until
        :meth:`release` is called for it.

        ``backlog`` is the drain-ahead residue (seconds of work that will
        run before this request's class queue position); ``queued_cost``
        the simulated cost already queued *in this request's class*.
        """
        estimate = request.cost().solo_cost
        drain_time = backlog + queued_cost
        if depth >= self.max_depth:
            return self._shed(request, now, "queue-full", drain_time)
        try:
            self.quotas[request.klass].acquire()
        except BulkheadFullError:
            return self._shed(request, now, "class-quota", drain_time)
        if queued_cost + estimate > self.capacities[request.klass]:
            self.quotas[request.klass].release()
            return self._shed(request, now, "cost-capacity", drain_time)
        remaining = request.deadline - now
        if drain_time + estimate > remaining:
            self.quotas[request.klass].release()
            return self._shed(request, now, "hopeless-deadline", drain_time)
        return AdmissionVerdict(admitted=True)

    def release(self, request: Request) -> None:
        """Free the class slot held since :meth:`admit` said yes."""
        self.quotas[request.klass].release()

    # -- pricing --------------------------------------------------------------
    def _shed(
        self, request: Request, now: float, reason: str, drain_time: float
    ) -> AdmissionVerdict:
        # Retry-After: once the current backlog has drained, an equivalent
        # request would clear every gate — never hint zero, a client that
        # retries instantly just gets shed again.
        retry_after = max(0.25, round(drain_time, 3))
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        self.ledger.record(
            ResilienceEvent.SHED,
            self.name,
            time=now,
            detail=(
                f"request {request.req_id} ({request.kind.value}) "
                f"shed: {reason}; retry after {retry_after:.2f}s"
            ),
            trigger=Trigger.NETWORK_EVENTS,
            symptom=Symptom.PERFORMANCE,
            delay=retry_after,
        )
        return AdmissionVerdict(
            admitted=False, reason=reason, retry_after=retry_after
        )
