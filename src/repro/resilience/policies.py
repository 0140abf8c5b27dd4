"""Composable resilience policies: retry/backoff and bulkheads.

Every policy is deterministic and clock-agnostic: a :class:`RetryPolicy`
*computes* delays (with seeded jitter) and leaves the scheduling to callers,
which drive the simulation :class:`~repro.sdnsim.clock.EventScheduler` —
nothing here ever touches wall-clock time, so hardened scenarios stay
exactly as reproducible as unhardened ones.
"""

from __future__ import annotations

import random
from repro.errors import BulkheadFullError, ResilienceError


class RetryPolicy:
    """A deterministic retry schedule.

    Parameters
    ----------
    max_attempts:
        Retries granted *after* the initial attempt (0 disables retrying).
    base_delay:
        Delay before the first retry, in simulated seconds.
    multiplier:
        Backoff factor between consecutive retries; ``1.0`` is a fixed
        schedule, ``> 1`` exponential.
    max_delay:
        Cap applied to every computed delay (before jitter).
    jitter:
        Fractional jitter amplitude in ``[0, 1)``: each delay is scaled by a
        factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` using a RNG
        seeded from the attempt number, so the schedule is reproducible and
        independent of call order.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        base_delay: float = 0.5,
        multiplier: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.0,
    ) -> None:
        if max_attempts < 0:
            raise ResilienceError(f"max_attempts must be >= 0, got {max_attempts}")
        if base_delay < 0:
            raise ResilienceError(f"base_delay must be >= 0, got {base_delay}")
        if multiplier < 1.0:
            raise ResilienceError(f"multiplier must be >= 1, got {multiplier}")
        if max_delay < base_delay:
            raise ResilienceError("max_delay must be >= base_delay")
        if not 0.0 <= jitter < 1.0:
            raise ResilienceError(f"jitter must be in [0, 1), got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ResilienceError(f"attempt is 1-based, got {attempt}")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            rng = random.Random(attempt)
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def delays(self) -> list[float]:
        """The full schedule, one delay per granted retry."""
        return [self.delay_for(i) for i in range(1, self.max_attempts + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, multiplier={self.multiplier})"
        )


class Bulkhead:
    """A concurrency cap isolating one resource pool from overload.

    ``acquire`` raises :class:`BulkheadFullError` once ``capacity`` callers
    hold the bulkhead; rejected calls are counted so callers can account
    for deliberately dropped work.  Usable as a context manager.
    """

    def __init__(self, capacity: int, *, name: str = "bulkhead") -> None:
        if capacity < 1:
            raise ResilienceError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self.peak_in_use = 0
        self.rejected = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> None:
        if self.in_use >= self.capacity:
            self.rejected += 1
            raise BulkheadFullError(
                f"bulkhead {self.name!r} is full ({self.capacity} in use)"
            )
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)

    def release(self) -> None:
        if self.in_use == 0:
            raise ResilienceError(f"bulkhead {self.name!r} released while empty")
        self.in_use -= 1

    def __enter__(self) -> "Bulkhead":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ResilienceConfig:
    """The hardening profile a hardened scenario or A/B campaign applies.

    ``retry`` guards transient external calls (TSDB writes); the breaker
    constants shape the :class:`~repro.resilience.breaker.CircuitBreaker` in
    front of those calls; ``restart_backoff`` is the supervised-restart
    schedule (its ``max_attempts`` is the restart-intensity budget).
    """

    retry = RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.1)
    restart_backoff = RetryPolicy(max_attempts=2, base_delay=2.0, multiplier=2.0)
    breaker_threshold = 0.5
    breaker_window = 6
    breaker_min_calls = 3
    breaker_cooldown = 10.0
