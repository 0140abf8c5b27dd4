"""Telemetry traces: what a monitoring stack sees before a controller dies.

Pre-crash signatures follow the fault models in :mod:`repro.faultinjection`:

* **memory-leak crashes** (ONOS-4859 class): heap usage ramps over minutes,
  GC log warnings accelerate, then the process dies;
* **load crashes**: event-queue depth and API latency climb, error rate
  follows, then collapse;
* **logic/config crashes** (CORD-2470 class): telemetry is flat and silent
  right up to the instant of death — the unguarded dereference gives no
  warning.  These are the provably-unpredictable class.
* **healthy runs**: stationary noise around the baselines.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.errors import ReproError


class CrashKind(enum.Enum):
    """How (and whether) a trace ends in a crash."""

    NONE = "none"  # healthy run
    MEMORY_LEAK = "memory_leak"
    LOAD = "load"
    LOGIC = "logic"  # missing-logic / config crash: no telemetry warning


@dataclass(frozen=True)
class TelemetrySample:
    """One monitoring snapshot."""

    time: float  # seconds since run start
    heap_mb: float
    queue_depth: float
    api_latency_ms: float
    error_rate: float  # errors/minute in the last interval


@dataclass
class TelemetryTrace:
    """A whole run's telemetry, plus its ground truth."""

    crash_kind: CrashKind
    crash_time: float | None  # None for healthy runs
    samples: list[TelemetrySample] = field(default_factory=list)

    @property
    def crashed(self) -> bool:
        return self.crash_time is not None

    def window_before(self, t: float, width: float) -> list[TelemetrySample]:
        """Samples in ``[t - width, t)``."""
        return [s for s in self.samples if t - width <= s.time < t]


#: Steady-state baselines (healthy controller).
_BASE_HEAP = 800.0
_BASE_QUEUE = 20.0
_BASE_LATENCY = 10.0
_BASE_ERRORS = 0.3


class TraceGenerator:
    """Seeded generator of telemetry traces per crash kind."""

    #: Seconds between telemetry samples.
    sample_interval = 15.0
    #: Seconds of telemetry per trace.
    duration = 1800.0

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def _noise(self, rng: random.Random, scale: float) -> float:
        return rng.gauss(0.0, scale)

    def generate(self, kind: CrashKind, index: int = 0) -> TelemetryTrace:
        """One trace of the given kind (deterministic per (seed, index)).

        The stream is derived by *string* seeding (stable SHA-512 mixing),
        never builtin ``hash()``, which is salted per process by
        PYTHONHASHSEED and made traces differ across interpreter runs.
        """
        rng = random.Random(f"{self.seed}:{kind.value}:{index}")
        if kind is CrashKind.NONE:
            crash_time = None
            end = self.duration
        else:
            crash_time = rng.uniform(0.5 * self.duration, self.duration)
            end = crash_time
        #: Ramp onset for the predictable kinds: minutes before the crash.
        onset = None
        if kind is CrashKind.MEMORY_LEAK:
            onset = max(0.0, (crash_time or 0) - rng.uniform(300.0, 700.0))
        elif kind is CrashKind.LOAD:
            onset = max(0.0, (crash_time or 0) - rng.uniform(150.0, 400.0))

        samples: list[TelemetrySample] = []
        t = 0.0
        while t < end:
            heap = _BASE_HEAP + self._noise(rng, 25.0)
            queue = max(0.0, _BASE_QUEUE + self._noise(rng, 4.0))
            latency = max(1.0, _BASE_LATENCY + self._noise(rng, 1.5))
            errors = max(0.0, _BASE_ERRORS + self._noise(rng, 0.15))
            if onset is not None and t >= onset:
                progress = (t - onset) / max((crash_time or end) - onset, 1.0)
                if kind is CrashKind.MEMORY_LEAK:
                    heap += 2200.0 * progress**1.5
                    errors += 4.0 * progress**2  # GC warnings accelerate
                elif kind is CrashKind.LOAD:
                    queue += 500.0 * progress**1.3
                    latency += 180.0 * progress**1.2
                    errors += 6.0 * progress**2
            samples.append(
                TelemetrySample(
                    time=t,
                    heap_mb=heap,
                    queue_depth=queue,
                    api_latency_ms=latency,
                    error_rate=errors,
                )
            )
            t += self.sample_interval
        return TelemetryTrace(crash_kind=kind, crash_time=crash_time, samples=samples)

    def generate_mixed(self, *, per_kind: int = 20) -> list[TelemetryTrace]:
        """A balanced corpus of traces across every :class:`CrashKind`."""
        if per_kind < 1:
            raise ReproError("per_kind must be >= 1")
        traces = []
        for kind in CrashKind:
            for index in range(per_kind):
                traces.append(self.generate(kind, index))
        return traces
