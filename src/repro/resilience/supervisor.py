"""Supervised restart: detect-and-restart cycles with a restart budget.

Modeled on the ONOS-5992 failover path: a supervisor watches a controller,
restarts it after a backoff delay when it dies, and gives up once the
restart-intensity budget is spent — recording each step in the
:class:`ResilienceLedger` so campaigns can price the recovery.

:class:`SupervisedRestart` drives those cycles against a fault execution,
which is how the A/B campaign and the ``supervised_restart`` framework
strategy measure what supervision actually buys (spoiler, per the paper:
nothing against deterministic bugs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import RetryPolicy
from repro.sdnsim.observers import Outcome
from repro.taxonomy import ByzantineMode, Symptom, Trigger


@dataclass(frozen=True)
class RestartRun:
    """The result of one supervised detect-and-restart cycle."""

    outcome: Outcome
    detected: bool
    restarts: int
    recovered: bool
    #: Total backoff seconds spent before the final outcome.
    recovery_latency: float


class SupervisedRestart:
    """Detect-and-restart harness over a re-executable fault scenario.

    Detection combines a heartbeat (fail-stop crashes) with a liveness
    watchdog (stalled core threads) — the supervisor's view of a child.
    Recovery re-executes the scenario with fresh timing after each backoff
    delay, up to the restart-intensity budget in ``backoff.max_attempts``.
    The environment (configuration, library versions, device state) is
    untouched by a restart, so deterministic bugs re-manifest every time —
    the §VII gap this harness exists to quantify.
    """

    def __init__(
        self,
        *,
        backoff: RetryPolicy | None = None,
        ledger: ResilienceLedger | None = None,
        component: str = "controller",
    ) -> None:
        self.backoff = backoff or RetryPolicy(
            max_attempts=2, base_delay=2.0, multiplier=2.0
        )
        self.ledger = ledger
        self.component = component

    @staticmethod
    def detects(outcome: Outcome) -> bool:
        """Heartbeat sees crashes; the liveness watchdog sees stalls."""
        return outcome.symptom is Symptom.FAIL_STOP or (
            outcome.byzantine_mode is ByzantineMode.STALL
        )

    def run(
        self,
        execute: Callable[[int], Outcome],
        seed: int,
        *,
        trigger: Trigger | None = None,
    ) -> RestartRun:
        """One detect-and-restart cycle against ``execute``."""
        outcome = execute(seed)
        if outcome.symptom is None or not self.detects(outcome):
            return RestartRun(
                outcome=outcome,
                detected=False,
                restarts=0,
                recovered=False,
                recovery_latency=0.0,
            )
        latency = 0.0
        for attempt in range(1, self.backoff.max_attempts + 1):
            delay = self.backoff.delay_for(attempt)
            latency += delay
            if self.ledger is not None:
                self.ledger.record(
                    ResilienceEvent.RESTART,
                    self.component,
                    detail=f"supervised restart after {outcome.detail[:60]}",
                    trigger=trigger,
                    symptom=outcome.symptom,
                    attempt=attempt,
                    delay=delay,
                )
            # New timing (new seed component), identical environment.
            outcome = execute(seed + attempt)
            if outcome.symptom is None:
                return RestartRun(
                    outcome=outcome,
                    detected=True,
                    restarts=attempt,
                    recovered=True,
                    recovery_latency=latency,
                )
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.GIVE_UP,
                self.component,
                detail="restart-intensity budget exhausted; fault persists",
                trigger=trigger,
                symptom=outcome.symptom,
            )
        return RestartRun(
            outcome=outcome,
            detected=True,
            restarts=self.backoff.max_attempts,
            recovered=False,
            recovery_latency=latency,
        )
