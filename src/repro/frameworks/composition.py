"""Framework composition analysis (SS VII-C takeaway).

The paper warns that layering fault-tolerance systems "may introduce
inefficiencies or impact accuracy": SPHINX requires *all* input OpenFlow
messages to maintain its flow-graph model, while Bouncer proactively filters
some inputs out — composing them silently corrupts SPHINX's model.  And
systems with fundamentally different inputs (SOFT analyzes vendor switch
outputs, CHIMP analyzes SDN application outputs) cannot be meaningfully
fused at all.

This module mechanizes those checks: each framework declares its stream
*requirements* and *effects*; the analyzer reports conflicts and
non-composable pairs for any stack the operator proposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FrameworkError


class StreamProperty(enum.Enum):
    """Properties of the control-message stream a framework cares about."""

    COMPLETE_INPUT_STREAM = "complete_input_stream"  # sees every message
    ORDERED_INPUT_STREAM = "ordered_input_stream"  # original ordering
    UNMODIFIED_PAYLOADS = "unmodified_payloads"  # no rewriting upstream
    EXCLUSIVE_RECOVERY = "exclusive_recovery"  # sole recovery authority


class StreamEffect(enum.Enum):
    """Ways a framework perturbs the stream for everything downstream."""

    FILTERS_INPUTS = "filters_inputs"  # drops messages (Bouncer)
    REORDERS_INPUTS = "reorders_inputs"  # buffering/replay (Ravana)
    REWRITES_INPUTS = "rewrites_inputs"  # transformation (LegoSDN)
    TAKES_RECOVERY_ACTIONS = "takes_recovery_actions"


#: Which effect violates which requirement.
_CONFLICTS: dict[StreamEffect, frozenset[StreamProperty]] = {
    StreamEffect.FILTERS_INPUTS: frozenset(
        {StreamProperty.COMPLETE_INPUT_STREAM}
    ),
    StreamEffect.REORDERS_INPUTS: frozenset(
        {StreamProperty.ORDERED_INPUT_STREAM}
    ),
    StreamEffect.REWRITES_INPUTS: frozenset(
        {StreamProperty.UNMODIFIED_PAYLOADS, StreamProperty.COMPLETE_INPUT_STREAM}
    ),
    StreamEffect.TAKES_RECOVERY_ACTIONS: frozenset(
        {StreamProperty.EXCLUSIVE_RECOVERY}
    ),
}


class InputDomain(enum.Enum):
    """What kind of system output a framework analyzes (SOFT vs CHIMP)."""

    OPENFLOW_MESSAGES = "openflow_messages"
    SWITCH_IMPLEMENTATION_OUTPUT = "switch_implementation_output"
    APPLICATION_OUTPUT = "application_output"
    CONFIGURATION = "configuration"


@dataclass(frozen=True)
class CompositionProfile:
    """Stream requirements/effects + input domain for one framework."""

    name: str
    requires: frozenset[StreamProperty]
    effects: frozenset[StreamEffect]
    domain: InputDomain


@dataclass(frozen=True)
class CompositionConflict:
    """One detected interference between two stacked frameworks."""

    upstream: str
    downstream: str
    effect: StreamEffect
    violated: StreamProperty
    explanation: str


def default_composition_profiles() -> dict[str, CompositionProfile]:
    """Profiles for the systems the paper's composition discussion names."""
    profiles = [
        CompositionProfile(
            name="SPHINX",
            requires=frozenset(
                {
                    StreamProperty.COMPLETE_INPUT_STREAM,
                    StreamProperty.ORDERED_INPUT_STREAM,
                }
            ),
            effects=frozenset(),
            domain=InputDomain.OPENFLOW_MESSAGES,
        ),
        CompositionProfile(
            name="Bouncer",
            requires=frozenset(),
            effects=frozenset({StreamEffect.FILTERS_INPUTS}),
            domain=InputDomain.OPENFLOW_MESSAGES,
        ),
        CompositionProfile(
            name="LegoSDN",
            requires=frozenset({StreamProperty.EXCLUSIVE_RECOVERY}),
            effects=frozenset(
                {StreamEffect.REWRITES_INPUTS, StreamEffect.TAKES_RECOVERY_ACTIONS}
            ),
            domain=InputDomain.OPENFLOW_MESSAGES,
        ),
        CompositionProfile(
            name="Ravana",
            requires=frozenset(
                {
                    StreamProperty.COMPLETE_INPUT_STREAM,
                    StreamProperty.ORDERED_INPUT_STREAM,
                    StreamProperty.EXCLUSIVE_RECOVERY,
                }
            ),
            effects=frozenset(
                {StreamEffect.REORDERS_INPUTS, StreamEffect.TAKES_RECOVERY_ACTIONS}
            ),
            domain=InputDomain.OPENFLOW_MESSAGES,
        ),
        CompositionProfile(
            name="SOFT",
            requires=frozenset(),
            effects=frozenset(),
            domain=InputDomain.SWITCH_IMPLEMENTATION_OUTPUT,
        ),
        CompositionProfile(
            name="CHIMP",
            requires=frozenset(),
            effects=frozenset(),
            domain=InputDomain.APPLICATION_OUTPUT,
        ),
    ]
    return {p.name: p for p in profiles}


def analyze_stack(stack: list[str]) -> list[CompositionConflict]:
    """Check a proposed stack (listed upstream-first) for interference.

    A conflict arises when an upstream framework's effect violates a
    downstream framework's stream requirement, or when two recovery
    authorities coexist anywhere in the stack.
    """
    profiles = default_composition_profiles()
    resolved: list[CompositionProfile] = []
    for name in stack:
        if name not in profiles:
            raise FrameworkError(
                f"no composition profile for {name!r}; known: {sorted(profiles)}"
            )
        resolved.append(profiles[name])

    conflicts: list[CompositionConflict] = []
    for i, upstream in enumerate(resolved):
        for downstream in resolved[i + 1 :]:
            for effect in sorted(upstream.effects, key=lambda e: e.value):
                for violated in sorted(
                    _CONFLICTS.get(effect, frozenset()) & downstream.requires,
                    key=lambda p: p.value,
                ):
                    conflicts.append(
                        CompositionConflict(
                            upstream=upstream.name,
                            downstream=downstream.name,
                            effect=effect,
                            violated=violated,
                            explanation=(
                                f"{upstream.name} {effect.value.replace('_', ' ')}, "
                                f"but {downstream.name} requires "
                                f"{violated.value.replace('_', ' ')}"
                            ),
                        )
                    )
    # Dual recovery authorities conflict regardless of order.
    recoverers = [
        p.name
        for p in resolved
        if StreamEffect.TAKES_RECOVERY_ACTIONS in p.effects
    ]
    if len(recoverers) > 1:
        for a, b in zip(recoverers, recoverers[1:]):
            conflicts.append(
                CompositionConflict(
                    upstream=a,
                    downstream=b,
                    effect=StreamEffect.TAKES_RECOVERY_ACTIONS,
                    violated=StreamProperty.EXCLUSIVE_RECOVERY,
                    explanation=(
                        f"{a} and {b} both take recovery actions; their "
                        "repairs can race and undo each other"
                    ),
                )
            )
    return conflicts


def composable(name_a: str, name_b: str) -> bool:
    """Can two frameworks' *results* even be fused?  (SOFT vs CHIMP: no —
    their input domains differ, so there is no common object to agree on.)"""
    profiles = default_composition_profiles()
    for name in (name_a, name_b):
        if name not in profiles:
            raise FrameworkError(f"no composition profile for {name!r}")
    return profiles[name_a].domain is profiles[name_b].domain
