"""Executable recovery strategies, validated against real fault re-execution.

These mechanize the three recovery archetypes the surveyed systems use:

* **Restart** (crash-restart, watchdogs): re-run after a failure.  The
  environment — configuration files, library versions, device state — is
  untouched, so a *deterministic* bug re-manifests immediately; only timing-
  dependent bugs are masked.
* **Replay** (Ravana-style replicated state machines): a replica replays the
  event log.  Same property, stronger guarantee on ordering: deterministic
  bugs replay deterministically, i.e. recovery fails.
* **Input filtering / transformation** (Bouncer, LegoSDN): suppress or alter
  the triggering input.  This *does* break deterministic bugs — but only
  when the trigger is an observable input event (network events), not a
  configuration or environment interaction.

The evaluator uses these to ground the capability matrix mechanically
instead of taking the literature's claims on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faultinjection.faults import FaultSpec
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import ResilienceConfig
from repro.resilience.supervisor import SupervisedRestart
from repro.sdnsim.observers import Outcome
from repro.taxonomy import Symptom, Trigger


@dataclass(frozen=True)
class RecoveryAttempt:
    """The result of one detect-and-recover cycle against a fault."""

    strategy: str
    fault_id: str
    detected: bool
    recovered: bool
    detail: str


def _is_healthy(outcome: Outcome) -> bool:
    return outcome.symptom is None or outcome.symptom is Symptom.ERROR_MESSAGE


class RestartStrategy:
    """Heartbeat detection + process restart.

    Detection: fail-stop only (a heartbeat notices a dead process; stalls,
    gray failures and wrong behaviour keep answering heartbeats).
    Recovery: re-execute the scenario with a fresh process but the same
    environment.  ``retries`` models supervised restart loops.
    """

    name = "restart"
    retries = 2

    def attempt(self, fault: FaultSpec, *, seed: int = 0) -> RecoveryAttempt:
        first = fault.execute(seed)
        detected = first.symptom is Symptom.FAIL_STOP
        if not detected:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=False,
                recovered=False,
                detail=f"heartbeat saw nothing (outcome: {first.detail})",
            )
        for retry in range(1, self.retries + 1):
            # A restart re-runs with new timing (different seed); the
            # persistent environment (config, library versions) is identical,
            # which is exactly why deterministic bugs come right back.
            outcome = fault.execute(seed + retry)
            if _is_healthy(outcome):
                return RecoveryAttempt(
                    strategy=self.name,
                    fault_id=fault.fault_id,
                    detected=True,
                    recovered=True,
                    detail=f"restart #{retry} came up healthy",
                )
        return RecoveryAttempt(
            strategy=self.name,
            fault_id=fault.fault_id,
            detected=True,
            recovered=False,
            detail=f"crashed again on every restart (x{self.retries})",
        )


class ReplayStrategy:
    """Replicated-state-machine failover with event-log replay (Ravana).

    Detection: fail-stop and stalls of the primary (the replica's liveness
    protocol notices both).  Recovery: the replica replays the exact logged
    events — same inputs, same order — so a deterministic bug re-executes
    identically and the failover fails; only timing-dependent bugs are
    masked by the replica's different runtime interleaving.
    """

    name = "replay"

    def attempt(self, fault: FaultSpec, *, seed: int = 0) -> RecoveryAttempt:
        first = fault.execute(seed)
        detected = first.symptom is Symptom.FAIL_STOP or (
            first.byzantine_mode is not None
            and first.byzantine_mode.value == "stall"
        )
        if not detected:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=False,
                recovered=False,
                detail=f"liveness protocol saw nothing (outcome: {first.detail})",
            )
        # Exact replay: identical seed = identical event sequence.  For a
        # non-deterministic bug the *runtime* interleaving differs on the
        # replica, modeled by perturbing the seed component that controls
        # interleaving only.
        replay_seed = seed if fault.bug_type.value == "deterministic" else seed + 101
        outcome = fault.execute(replay_seed)
        recovered = _is_healthy(outcome)
        return RecoveryAttempt(
            strategy=self.name,
            fault_id=fault.fault_id,
            detected=True,
            recovered=recovered,
            detail=(
                "replica replay healthy"
                if recovered
                else "replica replayed the same failure"
            ),
        )


class SupervisedRestartStrategy:
    """The resilience runtime as a recovery strategy.

    Plain :class:`RestartStrategy` with the whole supervision layer
    switched on: scenarios re-execute *hardened* (guarded TSDB, breaker —
    via :func:`~repro.faultinjection.scenario.resilience_context`), the
    watchdog detects stalls as well as fail-stop crashes, and restarts run
    under the restart-intensity budget with backoff.  The strategy thus
    additionally absorbs transient external-call symptoms, but inherits
    restart's blind spot: deterministic bugs re-manifest on every restart.
    """

    name = "supervised_restart"

    def attempt(self, fault: FaultSpec, *, seed: int = 0) -> RecoveryAttempt:
        from repro.faultinjection.scenario import resilience_context

        ledger = ResilienceLedger()
        harness = SupervisedRestart(
            backoff=ResilienceConfig.restart_backoff,
            ledger=ledger,
            component=fault.fault_id,
        )
        with resilience_context(ledger):
            run = harness.run(fault.execute, seed, trigger=fault.trigger)
        absorbed = ledger.count(ResilienceEvent.RETRY)
        if run.detected:
            if run.recovered:
                detail = (
                    f"supervised restart #{run.restarts} came up healthy "
                    f"after {run.recovery_latency:.1f}s backoff"
                )
            else:
                detail = (
                    f"restart-intensity budget spent (x{run.restarts}); "
                    "the fault is deterministic in the environment"
                )
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=True,
                recovered=run.recovered and _is_healthy(run.outcome),
                detail=detail,
            )
        if run.outcome.symptom is None and absorbed:
            # The guard layer ate the failure before the watchdog ever saw
            # it — detection and recovery happened below the supervisor.
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=True,
                recovered=True,
                detail=f"breaker/retry absorbed {absorbed} transient external failure(s)",
            )
        return RecoveryAttempt(
            strategy=self.name,
            fault_id=fault.fault_id,
            detected=False,
            recovered=False,
            detail=f"watchdog saw nothing (outcome: {run.outcome.detail})",
        )


class STSMinimizationStrategy:
    """STS-style troubleshooting: invariant monitors + trace minimization.

    STS (Scott et al., SIGCOMM'14) is a *diagnosis* framework: it detects
    invariant violations in a replayable control-plane trace and applies
    delta debugging to shrink the triggering event sequence to a minimal
    causal reproducer.  It never repairs the running system, so recovery is
    always ``False`` — the row the paper's Table VI marks "diagnosis only".

    Detection here is grounded in the real implementation: any manifest
    symptom counts as detectable because the adversary's monitor set
    (:mod:`repro.adversary.invariants`) observes mastership, quorum,
    orphaned-device, liveness and convergence properties at runtime, and
    ``repro adversary`` runs the actual machinery — find a violating
    :class:`~repro.adversary.schedule.FaultSchedule` and ddmin it down
    (:func:`repro.adversary.minimize_schedule`).
    """

    name = "sts_minimization"

    def attempt(self, fault: FaultSpec, *, seed: int = 0) -> RecoveryAttempt:
        first = fault.execute(seed)
        if first.symptom is None:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=False,
                recovered=False,
                detail="no invariant violated; nothing to minimize",
            )
        return RecoveryAttempt(
            strategy=self.name,
            fault_id=fault.fault_id,
            detected=True,
            recovered=False,
            detail=(
                f"invariant monitor flagged {first.symptom.value}; "
                "minimized reproducer handed to the operator (diagnosis only)"
            ),
        )


class InputFilterStrategy:
    """Input filtering / transformation (Bouncer, LegoSDN).

    Detection: any symptomatic outcome that follows an observable input
    event.  Recovery: re-run with the offending input suppressed — which is
    only *possible* when the trigger is an input the filter sits in front
    of (network events).  Configuration and environment triggers are not
    inputs flowing through the filter, so the strategy cannot act on them —
    the coverage gap the paper highlights.
    """

    name = "input_filter"

    def attempt(self, fault: FaultSpec, *, seed: int = 0) -> RecoveryAttempt:
        first = fault.execute(seed)
        if first.symptom is None:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=False,
                recovered=False,
                detail="no symptomatic outcome to correlate with an input",
            )
        if fault.trigger is not Trigger.NETWORK_EVENTS:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=True,
                recovered=False,
                detail=(
                    f"trigger {fault.trigger.value} does not pass through the "
                    "input filter; nothing to suppress"
                ),
            )
        if not fault.filterable:
            return RecoveryAttempt(
                strategy=self.name,
                fault_id=fault.fault_id,
                detected=True,
                recovered=False,
                detail=(
                    "the triggering event is a network state change, not a "
                    "filterable input message"
                ),
            )
        # Suppressing the triggering event class: mechanically, the scenario
        # without the fault's extra network events is the healthy baseline.
        from repro.faultinjection.scenario import build_scenario, run_workload

        baseline = run_workload(build_scenario(), seed=seed)
        # Filtering sacrifices the (buggy) feature the input exercised, so
        # feature checks tied to the suppressed input are waived: keep only
        # core forwarding checks.
        baseline.checks = [c for c in baseline.checks if c[0].startswith("forward")]
        outcome = baseline.outcome()
        recovered = _is_healthy(outcome)
        return RecoveryAttempt(
            strategy=self.name,
            fault_id=fault.fault_id,
            detected=True,
            recovered=recovered,
            detail=(
                "suppressing the trigger restored core forwarding"
                if recovered
                else "core forwarding still broken after filtering"
            ),
        )
