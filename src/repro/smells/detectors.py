"""The six smell detectors plotted in Fig 8.

Architecture smells (system level):
  * God Component — a package concentrating too much functionality.
  * Unstable Dependency — a package depending on a less stable package
    (violates Martin's Stable Dependencies Principle).
  * Hub-like Modularization — a class that is both heavily depended-upon and
    heavily dependent (high fan-in AND fan-out).  Designite files this under
    design smells; the paper plots it with the others, so we keep the label
    but report it in the same way.

Design smells (component level):
  * Insufficient Modularization — a class too large/complex to be one unit.
  * Broken Hierarchy — a subtype that shares no IS-A behaviour with its
    supertype (e.g. the paper's ``Run extends ElectionOperation`` example,
    Fig 9, fixed by re-parenting under ``AsyncLeaderElector`` in ONOS-6594).
  * Missing Hierarchy — conditional type-switching where a hierarchy should
    exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CodeModelError
from repro.smells.metrics import (
    all_package_instabilities,
    class_fan_in,
    class_fan_out,
    weighted_methods_per_class,
)
from repro.smells.model import CodeModel


class SmellKind(enum.Enum):
    """The six smells of Fig 8."""

    GOD_COMPONENT = "god_component"
    UNSTABLE_DEPENDENCY = "unstable_dependency"
    HUB_LIKE_MODULARIZATION = "hub_like_modularization"
    INSUFFICIENT_MODULARIZATION = "insufficient_modularization"
    BROKEN_HIERARCHY = "broken_hierarchy"
    MISSING_HIERARCHY = "missing_hierarchy"


@dataclass(frozen=True)
class SmellInstance:
    """One detected smell occurrence."""

    kind: SmellKind
    subject: str  # package or class name
    detail: str


class Thresholds:
    """Detector thresholds (Designite-inspired)."""

    god_component_classes = 30
    god_component_loc = 27_000
    unstable_dependency_margin = 0.0  # I(dependee) > I(depender) + margin
    hub_fan_in = 8
    hub_fan_out = 8
    insufficient_methods = 24
    insufficient_wmc = 110
    insufficient_loc = 1_000
    missing_hierarchy_switches = 3


@dataclass
class SmellReport:
    """All smells found in one code model, with per-kind counts."""

    model_name: str
    version: str
    instances: list[SmellInstance] = field(default_factory=list)

    def count(self, kind: SmellKind) -> int:
        return sum(1 for inst in self.instances if inst.kind is kind)

    def counts(self) -> dict[SmellKind, int]:
        return {kind: self.count(kind) for kind in SmellKind}

    def by_kind(self, kind: SmellKind) -> list[SmellInstance]:
        return [inst for inst in self.instances if inst.kind is kind]


def analyze(
    model: CodeModel, *, kinds: Iterable[SmellKind] | None = None
) -> SmellReport:
    """Run smell detectors over ``model``.

    ``kinds`` selects a subset of the six detectors (default: all), in the
    canonical :class:`SmellKind` order regardless of the order given — so
    a filtered report is always a sub-report of the full one.
    """
    model.validate()
    selected = set(SmellKind) if kinds is None else set(kinds)
    unknown = selected - set(SmellKind)
    if unknown:
        raise CodeModelError(f"unknown smell kinds: {sorted(map(repr, unknown))}")
    report = SmellReport(model_name=model.name, version=model.version)
    for kind in SmellKind:
        if kind in selected:
            _DETECTORS[kind](model, report)
    return report


def _detect_god_components(
    model: CodeModel, report: SmellReport
) -> None:
    for package in model.packages.values():
        if (
            package.class_count > Thresholds.god_component_classes
            or package.total_loc > Thresholds.god_component_loc
        ):
            report.instances.append(
                SmellInstance(
                    kind=SmellKind.GOD_COMPONENT,
                    subject=package.name,
                    detail=(
                        f"{package.class_count} classes, {package.total_loc} LOC "
                        f"(thresholds: {Thresholds.god_component_classes} classes / "
                        f"{Thresholds.god_component_loc} LOC)"
                    ),
                )
            )


def _detect_unstable_dependencies(
    model: CodeModel, report: SmellReport
) -> None:
    instabilities = all_package_instabilities(model)
    margin = Thresholds.unstable_dependency_margin
    for source, targets in sorted(model.package_dependencies().items()):
        for target in sorted(targets):
            if instabilities[target] > instabilities[source] + margin:
                report.instances.append(
                    SmellInstance(
                        kind=SmellKind.UNSTABLE_DEPENDENCY,
                        subject=source,
                        detail=(
                            f"depends on {target} "
                            f"(I={instabilities[target]:.2f} > I={instabilities[source]:.2f})"
                        ),
                    )
                )


def _detect_hubs(model: CodeModel, report: SmellReport) -> None:
    for cls in model.iter_classes():
        fan_in = class_fan_in(model, cls.name)
        fan_out = class_fan_out(model, cls.name)
        if fan_in >= Thresholds.hub_fan_in and fan_out >= Thresholds.hub_fan_out:
            report.instances.append(
                SmellInstance(
                    kind=SmellKind.HUB_LIKE_MODULARIZATION,
                    subject=cls.name,
                    detail=f"fan-in={fan_in}, fan-out={fan_out}",
                )
            )


def _detect_insufficient_modularization(
    model: CodeModel, report: SmellReport
) -> None:
    for cls in model.iter_classes():
        wmc = weighted_methods_per_class(cls)
        if (
            cls.public_method_count > Thresholds.insufficient_methods
            or wmc > Thresholds.insufficient_wmc
            or cls.loc > Thresholds.insufficient_loc
        ):
            report.instances.append(
                SmellInstance(
                    kind=SmellKind.INSUFFICIENT_MODULARIZATION,
                    subject=cls.name,
                    detail=(
                        f"{cls.public_method_count} public methods, WMC={wmc}, "
                        f"LOC={cls.loc}"
                    ),
                )
            )


def _detect_broken_hierarchy(
    model: CodeModel, report: SmellReport
) -> None:
    for cls in model.iter_classes():
        if cls.supertype is None or cls.supertype not in model:
            continue
        supertype = model.get_class(cls.supertype)
        if not supertype.methods:
            continue
        if not cls.inherited_members_used:
            report.instances.append(
                SmellInstance(
                    kind=SmellKind.BROKEN_HIERARCHY,
                    subject=cls.name,
                    detail=(
                        f"extends {cls.supertype} but uses/overrides none of its "
                        f"{len(supertype.methods)} methods (no IS-A relation)"
                    ),
                )
            )


def _detect_missing_hierarchy(
    model: CodeModel, report: SmellReport
) -> None:
    for cls in model.iter_classes():
        switches = cls.type_switch_count
        if switches >= Thresholds.missing_hierarchy_switches:
            report.instances.append(
                SmellInstance(
                    kind=SmellKind.MISSING_HIERARCHY,
                    subject=cls.name,
                    detail=f"{switches} type-switch sites (polymorphism missing)",
                )
            )


_DETECTORS = {
    SmellKind.GOD_COMPONENT: _detect_god_components,
    SmellKind.UNSTABLE_DEPENDENCY: _detect_unstable_dependencies,
    SmellKind.HUB_LIKE_MODULARIZATION: _detect_hubs,
    SmellKind.INSUFFICIENT_MODULARIZATION: _detect_insufficient_modularization,
    SmellKind.BROKEN_HIERARCHY: _detect_broken_hierarchy,
    SmellKind.MISSING_HIERARCHY: _detect_missing_hierarchy,
}
