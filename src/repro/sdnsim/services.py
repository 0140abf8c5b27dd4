"""External services the controller integrates with.

``TimeSeriesDB`` stands in for InfluxDB: api_version 1 coerced field values;
api_version 2 rejects non-numeric fields with a type error — the contract
change behind FAUCET-355 (Gauge crashing on a data-type mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.ledger import ResilienceLedger
    from repro.resilience.policies import RetryPolicy
    from repro.sdnsim.clock import EventScheduler


class ServiceTypeError(SimulationError):
    """The external service rejected a write because of a field type."""


class ServiceUnavailableError(SimulationError):
    """The external service is down or unreachable."""


@dataclass
class DataPoint:
    """One stored measurement row."""

    measurement: str
    fields: dict[str, float]
    timestamp: float


class TimeSeriesDB:
    """A typed time-series store with a version-dependent write contract."""

    def __init__(self, *, api_version: int = 2, available: bool = True) -> None:
        if api_version not in (1, 2):
            raise SimulationError(f"unsupported api_version {api_version}")
        self.api_version = api_version
        self.available = available
        self.points: list[DataPoint] = []

    def write(
        self, measurement: str, fields: Mapping[str, object], *, timestamp: float
    ) -> None:
        """Store a row.

        api_version 1 silently coerces stringly-typed numbers (the lenient
        legacy behaviour); api_version 2 raises :class:`ServiceTypeError`
        on any non-numeric field value.
        """
        if not self.available:
            raise ServiceUnavailableError(f"tsdb is down (write to {measurement})")
        coerced: dict[str, float] = {}
        for key, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ServiceTypeError(
                    f"field {key!r} has unsupported type {type(value).__name__}"
                )
            if isinstance(value, str):
                if self.api_version >= 2:
                    raise ServiceTypeError(
                        f"field {key!r} is a string; api v2 requires numeric fields"
                    )
                try:
                    coerced[key] = float(value)
                except ValueError:
                    raise ServiceTypeError(
                        f"field {key!r} is not parseable as a number: {value!r}"
                    ) from None
            else:
                coerced[key] = float(value)
        self.points.append(
            DataPoint(measurement=measurement, fields=coerced, timestamp=timestamp)
        )

    def count(self, measurement: str | None = None) -> int:
        if measurement is None:
            return len(self.points)
        return sum(1 for p in self.points if p.measurement == measurement)


class GuardedTimeSeriesDB:
    """A resilient facade over :class:`TimeSeriesDB`.

    Writes go through a circuit breaker plus a retry policy, both driven by
    the simulated clock:

    * a transient :class:`ServiceUnavailableError` is absorbed — the write
      is re-scheduled with backoff instead of surfacing as a scary error
      log (the paper's ``external-tsdb-flaky`` symptom);
    * while the breaker is open, writes are shed (silently dropped and
      ledgered) so a dead backend is not hammered;
    * a :class:`ServiceTypeError` is a *deterministic* contract violation
      (FAUCET-355) and propagates unchanged — no amount of retrying fixes a
      type mismatch, which is exactly the §VII claim the A/B campaign
      quantifies.
    """

    def __init__(
        self,
        backend: TimeSeriesDB,
        scheduler: "EventScheduler",
        *,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        ledger: "ResilienceLedger | None" = None,
    ) -> None:
        from repro.resilience.policies import RetryPolicy

        self.backend = backend
        self.scheduler = scheduler
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay=1.0)
        self.breaker = breaker
        self.ledger = ledger
        self.pending_retries = 0
        self.absorbed_failures = 0
        self.shed_writes = 0
        self.dropped_writes = 0

    # -- backend delegation ------------------------------------------------------
    @property
    def api_version(self) -> int:
        return self.backend.api_version

    @property
    def available(self) -> bool:
        return self.backend.available

    @property
    def points(self) -> list[DataPoint]:
        return self.backend.points

    # -- resilient write ---------------------------------------------------------
    def write(
        self, measurement: str, fields: Mapping[str, object], *, timestamp: float
    ) -> None:
        """Store a row, absorbing transient backend outages.

        Returns without raising on a transient failure (a retry is queued on
        the scheduler) and when the breaker sheds the write; raises only the
        deterministic :class:`ServiceTypeError`.
        """
        if self.breaker is not None and not self.breaker.allow():
            self._shed(measurement)
            return
        try:
            self.backend.write(measurement, dict(fields), timestamp=timestamp)
        except ServiceUnavailableError as exc:
            if self.breaker is not None:
                self._record_failure()
            self._schedule_retry(measurement, dict(fields), timestamp, 1, exc)
        except ServiceTypeError:
            raise  # deterministic contract violation; retry cannot help
        else:
            if self.breaker is not None:
                self.breaker.record_success()

    def _record_failure(self) -> None:
        from repro.taxonomy import Symptom, Trigger

        self.breaker.record_failure(
            trigger=Trigger.EXTERNAL_CALLS, symptom=Symptom.ERROR_MESSAGE
        )

    def _shed(self, measurement: str) -> None:
        from repro.resilience.ledger import ResilienceEvent
        from repro.taxonomy import Trigger

        self.shed_writes += 1
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.SHED,
                "tsdb",
                time=self.scheduler.clock.now,
                detail=f"write to {measurement} shed while breaker open",
                trigger=Trigger.EXTERNAL_CALLS,
            )

    def _schedule_retry(
        self,
        measurement: str,
        fields: dict[str, object],
        timestamp: float,
        attempt: int,
        error: Exception,
    ) -> None:
        from repro.resilience.ledger import ResilienceEvent
        from repro.taxonomy import Symptom, Trigger

        if attempt > self.retry.max_attempts:
            self.dropped_writes += 1
            if self.ledger is not None:
                self.ledger.record(
                    ResilienceEvent.DEGRADATION,
                    "tsdb",
                    time=self.scheduler.clock.now,
                    detail=f"write to {measurement} dropped after "
                    f"{attempt - 1} retries: {error}",
                    trigger=Trigger.EXTERNAL_CALLS,
                )
            return
        delay = self.retry.delay_for(attempt)
        self.pending_retries += 1
        self.absorbed_failures += 1
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.RETRY,
                "tsdb",
                time=self.scheduler.clock.now,
                detail=f"write to {measurement} retrying after: {error}",
                trigger=Trigger.EXTERNAL_CALLS,
                symptom=Symptom.ERROR_MESSAGE,
                attempt=attempt,
                delay=delay,
            )

        def fire() -> None:
            self.pending_retries -= 1
            if self.breaker is not None and not self.breaker.allow():
                self._shed(measurement)
                return
            try:
                self.backend.write(measurement, fields, timestamp=timestamp)
            except ServiceUnavailableError as exc:
                if self.breaker is not None:
                    self._record_failure()
                self._schedule_retry(measurement, fields, timestamp, attempt + 1, exc)
            except ServiceTypeError as exc:
                # The backend's contract changed while we were queued; the
                # scheduler context has no caller to raise into, so account
                # the loss instead of crashing the event loop.
                self.dropped_writes += 1
                if self.ledger is not None:
                    self.ledger.record(
                        ResilienceEvent.DEGRADATION,
                        "tsdb",
                        time=self.scheduler.clock.now,
                        detail=f"queued write to {measurement} rejected: {exc}",
                        trigger=Trigger.EXTERNAL_CALLS,
                    )
            else:
                if self.breaker is not None:
                    self.breaker.record_success()

        self.scheduler.schedule(delay, fire)


class AuthService:
    """A RADIUS-like authentication service (802.1X via chewie in FAUCET).

    ``api_version`` changes the expected credential argument order —
    modelling the argument-order library break class of external-call bugs.
    """

    def __init__(self, *, api_version: int = 1) -> None:
        self.api_version = api_version
        self.available = True
        self._granted: set[str] = set()

    def authenticate(self, first: str, second: str) -> bool:
        """v1 expects ``(mac, secret)``; v2 flipped to ``(secret, mac)``.

        Returns True and records the MAC on success; a caller compiled
        against the wrong version silently authorizes garbage — an
        incorrect-behaviour (byzantine) bug, not a crash.
        """
        if not self.available:
            raise ServiceUnavailableError("auth service is down")
        mac = first if self.api_version == 1 else second
        if ":" not in mac:
            return False
        self._granted.add(mac)
        return True

    def is_authorized(self, mac: str) -> bool:
        return mac in self._granted
