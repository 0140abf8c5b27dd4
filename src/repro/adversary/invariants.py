"""Runtime invariant monitors: the adversary's oracle.

STS needs an oracle to know a trace is worth minimizing; these monitors are
that oracle.  Each one checks a cross-cutting safety or liveness property of
the distributed control plane after every delivered event, emits a
:class:`InvariantViolation` the moment a property breaks, and maps the
violation onto the paper's Table I symptom taxonomy so adversary findings
land in the same reporting vocabulary as every other campaign.  Violations
are edge-triggered per (invariant, subject): a wedged cluster is one
violation, not one per check tick, and a property that heals and breaks
again is counted again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.taxonomy import ByzantineMode, Symptom, Trigger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.adversary.world import AdversaryWorld


@dataclass(frozen=True)
class InvariantViolation:
    """One observed break of a control-plane property."""

    time: float
    invariant: str
    subject: str
    detail: str
    symptom: Symptom
    byzantine_mode: ByzantineMode | None = None


@dataclass(frozen=True)
class Invariant:
    """One monitored property.

    ``check`` returns the currently-violating subjects as
    ``(subject, detail)`` pairs; the monitor set handles edge-triggering.
    """

    name: str
    symptom: Symptom
    byzantine_mode: ByzantineMode | None
    check: Callable[["AdversaryWorld"], Iterable[tuple[str, str]]]


# -- the invariant catalog ------------------------------------------------------

def _mastership_uniqueness(world: "AdversaryWorld") -> Iterable[tuple[str, str]]:
    """Safety: at most one live node self-claims mastership of each device.

    Reads ``world.claims``, the self-claimants per device that every view
    write updates, instead of scanning every node's view on every tick.
    """
    instances = world.cluster.instances
    for dpid in world.dpids:
        claimants = world.claims[dpid]
        if len(claimants) < 2:
            continue
        live = sorted(node for node in claimants if instances[node].is_alive)
        if len(live) > 1:
            names = ", ".join(live)
            yield (f"dpid={dpid}", f"dual mastership: {names} all claim dpid {dpid}")


def _quorum_safety(world: "AdversaryWorld") -> Iterable[tuple[str, str]]:
    """Liveness: live members must retain quorum (the ONOS-5992 wedge)."""
    if world.cluster.is_wedged():
        live = ", ".join(world.cluster.live_members)
        yield ("cluster", f"wedged: live members ({live}) but no quorum")


def _no_orphaned_devices(world: "AdversaryWorld") -> Iterable[tuple[str, str]]:
    """Safety: once failover has settled, no device may lack a live master."""
    if world.scheduler.clock.now - world.last_disruption < world.settle_horizon:
        return
    for dpid in world.cluster.orphaned_devices():
        yield (f"dpid={dpid}", f"device {dpid} orphaned after failover settled")


def _echo_liveness(world: "AdversaryWorld") -> Iterable[tuple[str, str]]:
    """Liveness: every echo request is answered within the deadline.

    A device's pending echoes are in seq order, sent on a clock that never
    goes back, and only ever removed, so the overdue ones are a prefix:
    the scan stops at the first echo still within its deadline.
    """
    now = world.scheduler.clock.now
    deadline = world.echo_deadline
    for dpid, device in world.devices.items():
        overdue = []
        for seq, sent in device.pending_echoes.items():
            if now - sent <= deadline:
                break
            overdue.append(seq)
        if overdue:
            yield (
                f"dpid={dpid}",
                f"{len(overdue)} echo(es) unanswered past {deadline:.0f}s "
                f"(seq {overdue[0]}..{overdue[-1]})",
            )


def _flow_convergence(world: "AdversaryWorld") -> Iterable[tuple[str, str]]:
    """Liveness: issued flow mods reach the device table within the horizon."""
    now = world.scheduler.clock.now
    horizon = world.convergence_horizon
    for (dpid, match_key), issued_at in world.issued_flows.items():
        if now - issued_at <= horizon:
            continue
        if match_key not in world.devices[dpid].flow_table:
            yield (
                f"dpid={dpid}",
                f"flow {match_key!r} issued at t={issued_at:.1f} never installed",
            )


def default_invariants() -> list[Invariant]:
    """The standard catalog, ordered by operational severity."""
    return [
        Invariant(
            "mastership-uniqueness",
            Symptom.BYZANTINE,
            ByzantineMode.INCORRECT_BEHAVIOR,
            _mastership_uniqueness,
        ),
        Invariant(
            "quorum-safety",
            Symptom.BYZANTINE,
            ByzantineMode.STALL,
            _quorum_safety,
        ),
        Invariant(
            "no-orphaned-devices",
            Symptom.BYZANTINE,
            ByzantineMode.GRAY_FAILURE,
            _no_orphaned_devices,
        ),
        Invariant(
            "echo-liveness",
            Symptom.BYZANTINE,
            ByzantineMode.STALL,
            _echo_liveness,
        ),
        Invariant(
            "flow-convergence",
            Symptom.BYZANTINE,
            ByzantineMode.INCORRECT_BEHAVIOR,
            _flow_convergence,
        ),
    ]


@dataclass
class MonitorSet:
    """Edge-triggered evaluation of the invariant catalog.

    Violations are priced into the resilience :class:`ResilienceLedger`
    (event ``VIOLATION``) so adversary findings share the accounting the
    A/B campaigns already use.
    """

    invariants: list[Invariant] = field(default_factory=default_invariants)
    ledger: ResilienceLedger | None = None
    violations: list[InvariantViolation] = field(default_factory=list)
    #: Every edge the monitors observed, in detection order:
    #: ``(time, invariant, subject, "rise"|"fall")``.  A rise is a fresh
    #: violation; a fall is the condition clearing (re-arming the trigger).
    #: The fuzzer's coverage map is built from these.
    transitions: list[tuple[float, str, str, str]] = field(default_factory=list)
    #: Currently-violating subjects per invariant name, updated in place.
    _active: dict[str, set[str]] = field(default_factory=dict)

    def run(self, world: "AdversaryWorld") -> list[InvariantViolation]:
        """Check every invariant; return (and record) the *new* violations."""
        fresh: list[InvariantViolation] = []
        now = world.scheduler.clock.now
        for invariant in self.invariants:
            name = invariant.name
            # A subject yielded twice keeps its last detail.
            current = dict(invariant.check(world))
            active = self._active.setdefault(name, set())
            if not current and not active:
                continue
            # Cleared conditions re-arm the edge trigger.
            for subject in sorted(active.difference(current)):
                self.transitions.append((now, name, subject, "fall"))
            active.intersection_update(current)
            for subject, detail in sorted(current.items()):
                if subject in active:
                    continue
                active.add(subject)
                self.transitions.append((now, name, subject, "rise"))
                violation = InvariantViolation(
                    time=now,
                    invariant=name,
                    subject=subject,
                    detail=detail,
                    symptom=invariant.symptom,
                    byzantine_mode=invariant.byzantine_mode,
                )
                fresh.append(violation)
                self.violations.append(violation)
                if self.ledger is not None:
                    self.ledger.record(
                        ResilienceEvent.VIOLATION,
                        component=subject,
                        time=now,
                        detail=f"{name}: {detail}",
                        trigger=Trigger.NETWORK_EVENTS,
                        symptom=invariant.symptom,
                    )
        return fresh

    def by_invariant(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts
