"""Structural metrics underlying the smell detectors."""

from __future__ import annotations

from repro.smells.model import ClassModel, CodeModel


def class_fan_out(model: CodeModel, class_name: str) -> int:
    """Number of *modeled* classes ``class_name`` depends on."""
    cls = model.get_class(class_name)
    return sum(1 for dep in cls.dependencies if dep in model)


def class_fan_in(model: CodeModel, class_name: str) -> int:
    """Number of modeled classes that depend on ``class_name``."""
    return sum(
        1 for other in model.iter_classes() if class_name in other.dependencies
    )


def weighted_methods_per_class(cls: ClassModel) -> int:
    """WMC: sum of method cyclomatic complexities."""
    return sum(m.complexity for m in cls.methods)


def all_package_instabilities(model: CodeModel) -> dict[str, float]:
    """Instability for every package, computed from one dependency pass."""
    deps = model.package_dependencies()
    afferent: dict[str, int] = {name: 0 for name in deps}
    for source, targets in deps.items():
        for target in targets:
            if target in afferent:
                afferent[target] += 1
    result: dict[str, float] = {}
    for name in deps:
        ce = len(deps[name])
        ca = afferent[name]
        result[name] = 1.0 if ca + ce == 0 else ce / (ca + ce)
    return result
