"""Enumerations for every taxonomy dimension in Table I.

Each bug receives *at most one* tag from each dimension; that constraint is
enforced by :func:`repro.taxonomy.label.validate_label`.
"""

from __future__ import annotations

import enum


class BugType(enum.Enum):
    """Determinism of the bug (SS III).

    Deterministic bugs are reproducible from a fixed set of input actions;
    non-deterministic bugs cannot be reproduced by replaying the same events.
    """

    DETERMINISTIC = "deterministic"
    NON_DETERMINISTIC = "non_deterministic"


class RootCauseFamily(enum.Enum):
    """Whether the root cause lies in controller logic or outside it."""

    CONTROLLER_LOGIC = "controller_logic"
    NON_CONTROLLER_LOGIC = "non_controller_logic"


class RootCause(enum.Enum):
    """Root causes (Table I).

    Controller logic-bugs: load, concurrency, memory, missing logic.
    Non controller logic-bugs: human (misconfiguration) and ecosystem
    interaction (third-party services, application libraries, system calls).
    """

    LOAD = "load"
    CONCURRENCY = "concurrency"
    MEMORY = "memory"
    MISSING_LOGIC = "missing_logic"
    HUMAN_MISCONFIGURATION = "human_misconfiguration"
    ECOSYSTEM_THIRD_PARTY = "ecosystem_third_party"
    ECOSYSTEM_APP_LIBRARY = "ecosystem_app_library"
    ECOSYSTEM_SYSTEM_CALL = "ecosystem_system_call"

    @property
    def family(self) -> RootCauseFamily:
        """Controller-logic vs non-controller-logic split used by Fig 2."""
        if self in _CONTROLLER_LOGIC_CAUSES:
            return RootCauseFamily.CONTROLLER_LOGIC
        return RootCauseFamily.NON_CONTROLLER_LOGIC

    @property
    def is_ecosystem(self) -> bool:
        """True for the three ecosystem-interaction causes."""
        return self in (
            RootCause.ECOSYSTEM_THIRD_PARTY,
            RootCause.ECOSYSTEM_APP_LIBRARY,
            RootCause.ECOSYSTEM_SYSTEM_CALL,
        )


_CONTROLLER_LOGIC_CAUSES = frozenset(
    {
        RootCause.LOAD,
        RootCause.CONCURRENCY,
        RootCause.MEMORY,
        RootCause.MISSING_LOGIC,
    }
)


class Symptom(enum.Enum):
    """Operational symptom of the bug (SS IV)."""

    PERFORMANCE = "performance"
    FAIL_STOP = "fail_stop"
    ERROR_MESSAGE = "error_message"
    BYZANTINE = "byzantine"


class ByzantineMode(enum.Enum):
    """Refinement of :attr:`Symptom.BYZANTINE` (SS IV).

    Gray failures are partial outages; stalls are temporary freezes;
    incorrect behaviour produces wrong results without any alert.
    """

    GRAY_FAILURE = "gray_failure"
    STALL = "stall"
    INCORRECT_BEHAVIOR = "incorrect_behavior"


class FixCategory(enum.Enum):
    """The three families of fixes in Table I."""

    NO_LOGIC_CHANGES = "no_logic_changes"
    ADD_NEW_LOGIC = "add_new_logic"
    CHANGE_EXISTING_LOGIC = "change_existing_logic"


class FixStrategy(enum.Enum):
    """Concrete fix strategies (Table I), each under one fix family."""

    ROLLBACK_UPGRADES = "rollback_upgrades"
    UPGRADE_PACKAGES = "upgrade_packages"
    ADD_LOGIC = "add_logic"
    ADD_SYNCHRONIZATION = "add_synchronization"
    FIX_CONFIGURATION = "fix_configuration"
    ADD_COMPATIBILITY = "add_compatibility"
    WORKAROUND = "workaround"

    @property
    def category(self) -> FixCategory:
        """The Table I fix family this strategy belongs to."""
        return _FIX_FAMILY[self]


_FIX_FAMILY = {
    FixStrategy.ROLLBACK_UPGRADES: FixCategory.NO_LOGIC_CHANGES,
    FixStrategy.UPGRADE_PACKAGES: FixCategory.NO_LOGIC_CHANGES,
    FixStrategy.ADD_LOGIC: FixCategory.ADD_NEW_LOGIC,
    FixStrategy.ADD_SYNCHRONIZATION: FixCategory.CHANGE_EXISTING_LOGIC,
    FixStrategy.FIX_CONFIGURATION: FixCategory.CHANGE_EXISTING_LOGIC,
    FixStrategy.ADD_COMPATIBILITY: FixCategory.CHANGE_EXISTING_LOGIC,
    FixStrategy.WORKAROUND: FixCategory.CHANGE_EXISTING_LOGIC,
}


class Trigger(enum.Enum):
    """Event class that initiates the bug (Table I, Fig 1)."""

    CONFIGURATION = "configuration"
    EXTERNAL_CALLS = "external_calls"
    NETWORK_EVENTS = "network_events"
    HARDWARE_REBOOTS = "hardware_reboots"


class ConfigSubcategory(enum.Enum):
    """Sub-categories of configuration-triggered bugs (Table III)."""

    CONTROLLER = "controller"
    DATA_PLANE = "data_plane"
    THIRD_PARTY = "third_party"


class ExternalCallKind(enum.Enum):
    """Sub-kinds of external calls (Fig 13 splits external calls into
    system calls, third-party calls, and application calls)."""

    SYSTEM_CALLS = "system_calls"
    THIRD_PARTY_CALLS = "third_party_calls"
    APPLICATION_CALLS = "application_calls"
