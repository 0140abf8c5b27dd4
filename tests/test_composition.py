"""Framework composition conflicts (SS VII-C)."""

from __future__ import annotations

import pytest

from repro.errors import FrameworkError
from repro.frameworks.composition import (
    StreamEffect,
    StreamProperty,
    analyze_stack,
    composable,
    default_composition_profiles,
)


class TestPaperExamples:
    def test_sphinx_over_bouncer_conflicts(self):
        """The paper's example: Bouncer filters inputs SPHINX needs for its
        flow graph."""
        conflicts = analyze_stack(["Bouncer", "SPHINX"])
        assert any(
            c.upstream == "Bouncer"
            and c.downstream == "SPHINX"
            and c.violated is StreamProperty.COMPLETE_INPUT_STREAM
            for c in conflicts
        )

    def test_sphinx_before_bouncer_is_clean(self):
        """Order matters: SPHINX upstream of the filter sees everything."""
        assert analyze_stack(["SPHINX", "Bouncer"]) == []

    def test_soft_chimp_not_composable(self):
        """SOFT analyzes switch-implementation outputs, CHIMP application
        outputs — no common object to fuse results over."""
        assert not composable("SOFT", "CHIMP")
        assert composable("SPHINX", "Bouncer")

    def test_dual_recovery_authorities_conflict(self):
        conflicts = analyze_stack(["Ravana", "LegoSDN"])
        assert any(
            c.violated is StreamProperty.EXCLUSIVE_RECOVERY for c in conflicts
        )


class TestAnalyzer:
    def test_unknown_framework_rejected(self):
        with pytest.raises(FrameworkError, match="no composition profile"):
            analyze_stack(["SPHINX", "MagicFixer"])
        with pytest.raises(FrameworkError):
            composable("SPHINX", "MagicFixer")

    def test_single_framework_never_conflicts(self):
        for name in default_composition_profiles():
            assert analyze_stack([name]) == []

    def test_conflicts_have_explanations(self):
        for conflict in analyze_stack(["Bouncer", "Ravana"]):
            assert conflict.upstream and conflict.downstream
            assert conflict.explanation

    def test_reorder_violates_ordering_requirement(self):
        conflicts = analyze_stack(["Ravana", "SPHINX"])
        assert any(
            c.effect is StreamEffect.REORDERS_INPUTS
            and c.violated is StreamProperty.ORDERED_INPUT_STREAM
            for c in conflicts
        )
