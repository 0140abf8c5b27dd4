"""The paper's five-dimension bug taxonomy (Table I).

Dimensions: bug type (determinism), root cause, symptom, fix, and trigger,
plus the sub-categories the paper uses for configuration bugs (Table III)
and external calls (Fig 13).
"""

from repro.taxonomy.dimensions import (
    ByzantineMode,
    BugType,
    ConfigSubcategory,
    ExternalCallKind,
    FixCategory,
    FixStrategy,
    RootCause,
    RootCauseFamily,
    Symptom,
    Trigger,
)
from repro.taxonomy.label import BugLabel, validate_label
from repro.taxonomy.store import LabelStore

__all__ = [
    "BugType",
    "ByzantineMode",
    "ConfigSubcategory",
    "ExternalCallKind",
    "FixCategory",
    "FixStrategy",
    "RootCause",
    "RootCauseFamily",
    "Symptom",
    "Trigger",
    "BugLabel",
    "validate_label",
    "LabelStore",
]
