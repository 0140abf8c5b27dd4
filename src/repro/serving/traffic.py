"""Seeded synthetic traffic for the serving daemon.

The generator produces the workload shape that actually kills control
planes in the paper's bug corpus: a modest Poisson base load with
superimposed *bursts* (flash crowds at many times the base rate), a
heavy-tailed payload-size distribution (most classify texts are short,
a few are very long), and two injected client-side fault classes —
**slow clients** that hold a delivery slot far longer than normal, and
**poison requests** whose payload deterministically crashes the backend.

Everything is drawn from one ``random.Random(seed)``: the same seed
always yields the identical request sequence (ids, kinds, arrival times,
payloads, fault flags), which is what makes the A/B comparison and the
two-run determinism gate meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ServingError
from repro.serving.request import Request, RequestFactory, RequestKind

#: Text fragments composed into synthetic classify payloads.  Drawn from
#: the taxonomy vocabulary so heuristic and full tiers both have signal.
_PHRASES: tuple[str, ...] = (
    "controller crashed after the config push",
    "switch reports inconsistent flow entries",
    "latency spikes under moderate load",
    "error message flood in the controller log",
    "cluster member restarts in a loop",
    "stale routes remain after failover",
    "memory leak grows until the process dies",
    "traceback on malformed REST request",
    "throughput degrades when links flap",
    "duplicate packets on the redundant path",
    "unexpected timeout talking to the datastore",
    "wrong VLAN applied after reboot",
)

_QUERY_NAMES: tuple[str, ...] = ("symptoms", "triggers", "determinism")

#: Request-kind mix: relative weights of classify, query, lint, minimize.
_KIND_WEIGHTS = (0.70, 0.20, 0.06, 0.04)
#: A slow client holds its delivery slot this long (simulated seconds).
_SLOW_CLIENT_HOLD = 8.0
#: Pareto shape for the heavy-tail payload length multiplier.
_TAIL_ALPHA = 1.5


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one synthetic trace; every field feeds the seeded RNG."""

    seed: int = 2020
    duration: float = 60.0
    #: Poisson arrival rates (requests per simulated second).
    base_rate: float = 6.0
    burst_rate: float = 40.0
    bursts: int = 3
    burst_length: float = 4.0
    #: Fault injection probabilities.
    slow_client_rate: float = 0.03
    poison_rate: float = 0.02

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ServingError("duration must be > 0")
        if self.base_rate <= 0 or self.burst_rate <= 0:
            raise ServingError("arrival rates must be > 0")
        if self.bursts < 0:
            raise ServingError("bursts must be >= 0")
        for rate in (self.slow_client_rate, self.poison_rate):
            if not 0.0 <= rate <= 1.0:
                raise ServingError("fault rates must be in [0, 1]")


@dataclass
class Trace:
    """A fully materialized request sequence plus its fault inventory."""

    config: TrafficConfig
    requests: list[Request] = field(default_factory=list)

    @property
    def slow_clients(self) -> int:
        return sum(1 for r in self.requests if r.client_hold > 0)

    @property
    def poison(self) -> int:
        return sum(1 for r in self.requests if r.poison)

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.requests:
            counts[request.kind.value] = counts.get(request.kind.value, 0) + 1
        return dict(sorted(counts.items()))


def _burst_windows(config: TrafficConfig, rng: random.Random) -> list[tuple[float, float]]:
    """Burst start/end times, drawn once and sorted for determinism."""
    windows = []
    for _ in range(config.bursts):
        start = rng.uniform(0.0, max(0.0, config.duration - config.burst_length))
        windows.append((start, start + config.burst_length))
    return sorted(windows)


def _rate_at(t: float, config: TrafficConfig, windows: list[tuple[float, float]]) -> float:
    for start, end in windows:
        if start <= t < end:
            return config.burst_rate
    return config.base_rate


def _payload_for(kind: RequestKind, rng: random.Random):
    if kind is RequestKind.CLASSIFY:
        # Heavy tail: most texts are 1-3 phrases, a few are much longer.
        tail = rng.paretovariate(_TAIL_ALPHA)
        phrases = max(1, min(40, int(tail)))
        return " ".join(rng.choice(_PHRASES) for _ in range(phrases))
    if kind is RequestKind.QUERY:
        return rng.choice(_QUERY_NAMES)
    if kind is RequestKind.LINT:
        name = f"handler_{rng.randrange(1000)}"
        return (
            f"import time\n\n\ndef {name}(event):\n"
            f"    start = time.time()\n"
            f"    return event, start\n"
        )
    # MINIMIZE: the payload is a schedule seed.
    return rng.randrange(10_000)


def generate_trace(config: TrafficConfig) -> Trace:
    """Materialize one seeded trace (thinned non-homogeneous Poisson).

    Arrivals are drawn by thinning against ``burst_rate`` (the maximum
    instantaneous rate), so burst windows genuinely arrive at burst rate
    and quiet periods at base rate, all from the single seeded stream.
    """
    rng = random.Random(config.seed)
    windows = _burst_windows(config, rng)
    factory = RequestFactory()
    trace = Trace(config=config)
    kinds = (RequestKind.CLASSIFY, RequestKind.QUERY,
             RequestKind.LINT, RequestKind.MINIMIZE)
    max_rate = max(config.base_rate, config.burst_rate)
    t = 0.0
    while True:
        t += rng.expovariate(max_rate)
        if t >= config.duration:
            break
        if rng.random() > _rate_at(t, config, windows) / max_rate:
            continue  # thinned: this candidate arrival does not occur
        kind = rng.choices(kinds, weights=_KIND_WEIGHTS)[0]
        payload = _payload_for(kind, rng)
        client_hold = 0.0
        if rng.random() < config.slow_client_rate:
            client_hold = _SLOW_CLIENT_HOLD
        poison = rng.random() < config.poison_rate
        trace.requests.append(
            factory.make(
                kind,
                payload,
                arrival=round(t, 6),
                client_hold=client_hold,
                poison=poison,
            )
        )
    return trace


def replay(trace: Trace | Iterable[Request], daemon) -> None:
    """Schedule every request's arrival onto the daemon's event loop.

    Purely schedules — call ``daemon.run(until=...)`` to execute.  A
    trace replays identically into any daemon sharing a fresh scheduler.
    """
    requests = trace.requests if isinstance(trace, Trace) else list(trace)
    for request in requests:
        daemon.scheduler.schedule_at(
            request.arrival, lambda req=request: daemon.submit(req)
        )
