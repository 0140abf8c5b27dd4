"""Code-smell analysis (SS VI-A), a from-scratch Designite-style analyzer.

Operates on an explicit code model (packages -> classes -> methods with
dependency and inheritance edges) and implements the two architecture smells
and four design smells the paper plots in Fig 8.
"""

from repro.smells.model import ClassModel, CodeModel, Method, PackageModel
from repro.smells.metrics import (
    class_fan_in,
    class_fan_out,
    weighted_methods_per_class,
)
from repro.smells.detectors import (
    SmellInstance,
    SmellKind,
    SmellReport,
    analyze,
)

__all__ = [
    "ClassModel",
    "CodeModel",
    "Method",
    "PackageModel",
    "class_fan_in",
    "class_fan_out",
    "weighted_methods_per_class",
    "SmellInstance",
    "SmellKind",
    "SmellReport",
    "analyze",
]
