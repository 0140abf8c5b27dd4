"""A circuit breaker driven by the simulated clock.

Closed → open when the failure rate over a sliding window of recent calls
crosses a threshold; open → half-open after a cool-down scheduled on the
simulation :class:`EventScheduler`; half-open admits a bounded number of
probe calls and closes on success or re-opens on failure.  While open,
calls are shed (:class:`CircuitOpenError`) instead of hammering a backend
that is already down — the anti-pattern behind several of the paper's
external-call cascade bugs.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import CircuitOpenError, ResilienceError
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.taxonomy import Symptom, Trigger

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdnsim.clock import EventScheduler


class BreakerState(enum.Enum):
    """The classic three-state breaker lifecycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate breaker with sim-clock cool-down.

    Parameters
    ----------
    scheduler:
        The simulation scheduler; cool-downs are events on its clock.
    failure_threshold:
        Open when ``failures / window_calls`` reaches this rate.
    window:
        Number of most-recent calls the failure rate is computed over.
    min_calls:
        No tripping before this many calls are in the window (avoids
        opening on the very first hiccup).
    cooldown:
        Simulated seconds to stay open before probing (half-open).
    """

    #: Probe calls admitted while half-open.
    half_open_probes = 1

    def __init__(
        self,
        scheduler: "EventScheduler",
        *,
        name: str = "breaker",
        failure_threshold: float = 0.5,
        window: int = 6,
        min_calls: int = 3,
        cooldown: float = 10.0,
        ledger: ResilienceLedger | None = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ResilienceError("failure_threshold must be in (0, 1]")
        if window < 1 or min_calls < 1:
            raise ResilienceError("window and min_calls must be >= 1")
        if min_calls > window:
            raise ResilienceError("min_calls cannot exceed window")
        if cooldown <= 0:
            raise ResilienceError("cooldown must be > 0")
        self.scheduler = scheduler
        self.name = name
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.cooldown = cooldown
        self.ledger = ledger
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.shed_calls = 0
        self._results: deque[bool] = deque(maxlen=window)
        self._probes_inflight = 0

    # -- rate bookkeeping -----------------------------------------------------
    @property
    def failure_rate(self) -> float:
        if not self._results:
            return 0.0
        return sum(1 for ok in self._results if not ok) / len(self._results)

    def allow(self) -> bool:
        """May a call proceed right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return self._probes_inflight < self.half_open_probes
        return False

    @property
    def probes_inflight(self) -> int:
        """Half-open probes currently outstanding."""
        return self._probes_inflight

    def begin_probe(self) -> None:
        """Mark a half-open probe as started.

        Callers that run work asynchronously (e.g. on an event scheduler)
        pair this with a later :meth:`record_success` /
        :meth:`record_failure`, which retires the probe.  Outside
        half-open this is a no-op — ordinary closed-state calls are not
        probes.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight += 1

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._close()
            return
        self._results.append(True)

    def record_failure(
        self,
        *,
        trigger: Trigger | None = None,
        symptom: Symptom | None = None,
    ) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._open(trigger=trigger, symptom=symptom, detail="probe failed")
            return
        self._results.append(False)
        if (
            self.state is BreakerState.CLOSED
            and len(self._results) >= self.min_calls
            and self.failure_rate >= self.failure_threshold
        ):
            self._open(
                trigger=trigger,
                symptom=symptom,
                detail=f"failure rate {self.failure_rate:.0%} over "
                f"{len(self._results)} calls",
            )

    # -- state transitions -----------------------------------------------------
    def _open(
        self,
        *,
        trigger: Trigger | None,
        symptom: Symptom | None,
        detail: str,
    ) -> None:
        self.state = BreakerState.OPEN
        self.trips += 1
        self._results.clear()
        self._probes_inflight = 0
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.BREAKER_OPEN,
                self.name,
                time=self.scheduler.clock.now,
                detail=detail,
                trigger=trigger,
                symptom=symptom,
                delay=self.cooldown,
            )
        self.scheduler.schedule(self.cooldown, self._half_open)

    def _half_open(self) -> None:
        if self.state is not BreakerState.OPEN:
            return
        self.state = BreakerState.HALF_OPEN
        self._probes_inflight = 0
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.BREAKER_HALF_OPEN,
                self.name,
                time=self.scheduler.clock.now,
                detail="cool-down elapsed; probing",
            )

    def _close(self) -> None:
        self.state = BreakerState.CLOSED
        self._results.clear()
        self._probes_inflight = 0
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.BREAKER_CLOSE,
                self.name,
                time=self.scheduler.clock.now,
                detail="probe succeeded; backend healthy again",
            )

    # -- convenience wrapper ---------------------------------------------------
    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` through the breaker.

        Raises :class:`CircuitOpenError` without calling when open; any
        exception from ``fn`` counts as a failure and propagates.
        """
        if not self.allow():
            self.shed_calls += 1
            if self.ledger is not None:
                self.ledger.record(
                    ResilienceEvent.SHED,
                    self.name,
                    time=self.scheduler.clock.now,
                    detail="call rejected while open",
                )
            raise CircuitOpenError(f"breaker {self.name!r} is {self.state.value}")
        self.begin_probe()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
