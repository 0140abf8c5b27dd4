"""Simulated time and a discrete-event scheduler."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import SimulationError


class SimClock:
    """Monotonic simulated clock (seconds as float)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        if t < self._now:
            raise SimulationError(f"clock cannot go backwards: {t} < {self._now}")
        self._now = t


class EventScheduler:
    """Min-heap discrete-event loop over a :class:`SimClock`.

    Callbacks scheduled at equal times run in scheduling order (a strictly
    increasing sequence number breaks ties), which keeps runs deterministic.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self.clock._now + delay, next(self._sequence), callback)
        )

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``when``."""
        if when < self.clock.now:
            raise SimulationError(f"cannot schedule in the past: {when}")
        heapq.heappush(self._heap, (when, next(self._sequence), callback))

    @property
    def pending(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        """Drop every pending event without running it."""
        self._heap.clear()

    def run(self, *, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Drain the event heap.

        ``until`` stops the loop once the next event lies beyond that time
        (the clock still advances to ``until``).  ``max_events`` guards
        against runaway feedback loops — exceeding it raises, because an
        unbounded event cascade is a simulation bug, not a result.
        """
        heap, clock = self._heap, self.clock
        events_run = 0
        while heap:
            if until is not None and heap[0][0] > until:
                break
            when, _seq, callback = heapq.heappop(heap)
            # Every entry lies at or after the clock (``schedule`` and
            # ``schedule_at`` refuse the past), so the pop cannot go back.
            clock._now = when
            callback()
            events_run += 1
            if events_run > max_events:
                raise SimulationError(
                    f"event cascade exceeded {max_events} events; "
                    "likely a feedback loop in the scenario"
                )
        if until is not None:
            self.clock.advance_to(until)
