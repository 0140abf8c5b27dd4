"""Capability models for published SDN fault-tolerance systems.

Each model captures what the paper's survey (Table VI / SS VII-C) records:
which trigger classes the system observes, which symptoms it can detect,
which triggers it can *recover* from, and whether its recovery story works
for deterministic bugs (replay-style recovery does not: replaying the same
inputs re-executes the same bug, SS III)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.taxonomy import BugType, Symptom, Trigger


@dataclass(frozen=True)
class FrameworkModel:
    """One fault-tolerance / diagnosis system."""

    name: str
    venue: str
    approach: str
    detect_triggers: frozenset[Trigger]
    detect_symptoms: frozenset[Symptom]
    recover_triggers: frozenset[Trigger]
    recovers_nondeterministic: bool
    recovers_deterministic: bool
    #: Diagnosis-only systems detect/localize but never recover.
    diagnosis_only: bool = False

    def can_detect(self, trigger: Trigger, symptom: Symptom) -> bool:
        return trigger in self.detect_triggers and symptom in self.detect_symptoms

    def can_recover(self, trigger: Trigger, bug_type: BugType) -> bool:
        if self.diagnosis_only or trigger not in self.recover_triggers:
            return False
        if bug_type is BugType.DETERMINISTIC:
            return self.recovers_deterministic
        return self.recovers_nondeterministic


_ALL_SYMPTOMS = frozenset(Symptom)
_NET = frozenset({Trigger.NETWORK_EVENTS})
_NONE: frozenset[Trigger] = frozenset()


def default_registry() -> dict[str, FrameworkModel]:
    """The surveyed systems, keyed by name."""
    models = [
        FrameworkModel(
            name="Ravana",
            venue="SOSR'15",
            approach="replicated state machine with event-log replay",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.FAIL_STOP}),
            recover_triggers=_NET,
            recovers_nondeterministic=True,
            recovers_deterministic=False,
        ),
        FrameworkModel(
            name="LegoSDN",
            venue="SoCC'16",
            approach="app-crash isolation + event transformation",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.FAIL_STOP, Symptom.ERROR_MESSAGE}),
            recover_triggers=_NET,
            recovers_nondeterministic=True,
            recovers_deterministic=True,  # transforms the triggering event
        ),
        FrameworkModel(
            name="SCL",
            venue="NSDI'17",
            approach="coordination-free consistency layer",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.BYZANTINE}),
            recover_triggers=_NET,
            recovers_nondeterministic=True,
            recovers_deterministic=False,
        ),
        FrameworkModel(
            name="RoseMary",
            venue="CCS'14",
            approach="resource-isolated app sandboxing",
            detect_triggers=frozenset({Trigger.NETWORK_EVENTS, Trigger.EXTERNAL_CALLS}),
            detect_symptoms=frozenset(
                {Symptom.FAIL_STOP, Symptom.PERFORMANCE, Symptom.ERROR_MESSAGE}
            ),
            recover_triggers=_NET,
            recovers_nondeterministic=True,
            recovers_deterministic=False,
        ),
        FrameworkModel(
            name="SCOUT",
            venue="ICNP'17",
            approach="cross-layer performance diagnosis",
            detect_triggers=frozenset({Trigger.NETWORK_EVENTS, Trigger.CONFIGURATION}),
            detect_symptoms=frozenset({Symptom.PERFORMANCE, Symptom.ERROR_MESSAGE}),
            recover_triggers=_NONE,
            recovers_nondeterministic=False,
            recovers_deterministic=False,
            diagnosis_only=True,
        ),
        FrameworkModel(
            name="JURY",
            venue="DSN'17",
            approach="validates distributed controller decisions",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.BYZANTINE}),
            recover_triggers=_NET,
            recovers_nondeterministic=True,
            recovers_deterministic=False,
        ),
        FrameworkModel(
            name="DPQoAP",
            venue="ANCS'16",
            approach="data-plane probing for policy deviation",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.BYZANTINE, Symptom.PERFORMANCE}),
            recover_triggers=_NONE,
            recovers_nondeterministic=False,
            recovers_deterministic=False,
            diagnosis_only=True,
        ),
        FrameworkModel(
            name="STS",
            venue="SIGCOMM'14",
            approach="input minimization / troubleshooting",
            detect_triggers=_NET,
            detect_symptoms=_ALL_SYMPTOMS,
            recover_triggers=_NONE,
            recovers_nondeterministic=False,
            recovers_deterministic=False,
            diagnosis_only=True,
        ),
        FrameworkModel(
            name="SPHINX",
            venue="NDSS'15",
            approach="flow-graph-based behaviour verification",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.BYZANTINE}),
            recover_triggers=_NONE,
            recovers_nondeterministic=False,
            recovers_deterministic=False,
            diagnosis_only=True,
        ),
        FrameworkModel(
            name="Bouncer",
            venue="(input filtering)",
            approach="filters inputs known to trigger crashes",
            detect_triggers=_NET,
            detect_symptoms=frozenset({Symptom.FAIL_STOP}),
            recover_triggers=_NET,
            recovers_nondeterministic=False,
            recovers_deterministic=True,  # the filter removes the bad input
        ),
        FrameworkModel(
            name="Lock-in-Pop",
            venue="ATC'17 (non-SDN)",
            approach="kernel-interface isolation (popular paths only)",
            detect_triggers=frozenset({Trigger.EXTERNAL_CALLS, Trigger.CONFIGURATION}),
            detect_symptoms=frozenset({Symptom.FAIL_STOP, Symptom.ERROR_MESSAGE}),
            recover_triggers=frozenset({Trigger.EXTERNAL_CALLS}),
            recovers_nondeterministic=True,
            recovers_deterministic=False,
        ),
    ]
    return {m.name: m for m in models}
