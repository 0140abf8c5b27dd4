"""Control-plane adversary: message-level fault injection with an oracle.

The paper's hardest bug classes — nondeterministic races, coordination
failures, controller-state inconsistency — live in the control-plane
*message stream*, and the frameworks it evaluates (STS, Ravana) work there.
This package supplies that layer for the repro:

* :mod:`repro.adversary.schedule` — replayable ``FaultSchedule`` of
  ``(time, target, action)`` events, the adversary's deterministic input;
* :mod:`repro.adversary.interposer` — drop / duplicate / delay / reorder /
  corrupt rules in front of every control channel, plus partition cuts;
* :mod:`repro.adversary.world` — a replicated control plane (mastership
  views, echo liveness, reactive flow installs) the schedule perturbs;
* :mod:`repro.adversary.invariants` — runtime monitors for mastership
  uniqueness, quorum safety, orphaned devices, echo liveness, and flow
  convergence, mapped onto the Table I symptom taxonomy;
* :mod:`repro.adversary.minimizer` — STS-style ddmin shrinking a violating
  schedule to a minimal reproducer by deterministic replay.
"""

from repro.adversary.interposer import MessageInterposer
from repro.adversary.invariants import (
    Invariant,
    InvariantViolation,
    MonitorSet,
    default_invariants,
)
from repro.adversary.minimizer import MinimizationResult, minimize_schedule
from repro.adversary.schedule import (
    CHANNEL_ACTIONS,
    FaultAction,
    FaultEvent,
    FaultSchedule,
    random_schedule,
)
from repro.adversary.world import (
    AdversaryResult,
    AdversaryWorld,
    DeviceState,
    MastershipAnnouncement,
    find_violating_schedule,
    run_adversary,
)

__all__ = [
    "CHANNEL_ACTIONS",
    "FaultAction",
    "FaultEvent",
    "FaultSchedule",
    "random_schedule",
    "MessageInterposer",
    "Invariant",
    "InvariantViolation",
    "MonitorSet",
    "default_invariants",
    "MinimizationResult",
    "minimize_schedule",
    "AdversaryResult",
    "AdversaryWorld",
    "DeviceState",
    "MastershipAnnouncement",
    "find_violating_schedule",
    "run_adversary",
]
