"""Taxonomy dimensions, label validation, and the label store."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TaxonomyError
from repro.taxonomy import (
    BugLabel,
    BugType,
    ByzantineMode,
    ConfigSubcategory,
    ExternalCallKind,
    FixCategory,
    FixStrategy,
    LabelStore,
    RootCause,
    RootCauseFamily,
    Symptom,
    Trigger,
)


def make_label(**overrides) -> BugLabel:
    """A valid baseline label, overridable per test."""
    defaults = dict(
        bug_type=BugType.DETERMINISTIC,
        root_cause=RootCause.MISSING_LOGIC,
        symptom=Symptom.FAIL_STOP,
        fix=FixStrategy.ADD_LOGIC,
        trigger=Trigger.NETWORK_EVENTS,
    )
    defaults.update(overrides)
    return BugLabel(**defaults)


class TestDimensions:
    def test_controller_logic_family(self):
        assert RootCause.LOAD.family is RootCauseFamily.CONTROLLER_LOGIC
        assert RootCause.MEMORY.family is RootCauseFamily.CONTROLLER_LOGIC

    def test_non_controller_logic_family(self):
        assert (
            RootCause.HUMAN_MISCONFIGURATION.family
            is RootCauseFamily.NON_CONTROLLER_LOGIC
        )
        assert (
            RootCause.ECOSYSTEM_THIRD_PARTY.family
            is RootCauseFamily.NON_CONTROLLER_LOGIC
        )

    def test_ecosystem_flag(self):
        assert RootCause.ECOSYSTEM_SYSTEM_CALL.is_ecosystem
        assert not RootCause.HUMAN_MISCONFIGURATION.is_ecosystem
        assert not RootCause.LOAD.is_ecosystem

    def test_every_fix_strategy_has_a_family(self):
        for strategy in FixStrategy:
            assert isinstance(strategy.category, FixCategory)

    def test_fix_families_match_table_one(self):
        assert FixStrategy.ROLLBACK_UPGRADES.category is FixCategory.NO_LOGIC_CHANGES
        assert FixStrategy.UPGRADE_PACKAGES.category is FixCategory.NO_LOGIC_CHANGES
        assert FixStrategy.ADD_LOGIC.category is FixCategory.ADD_NEW_LOGIC
        assert (
            FixStrategy.ADD_SYNCHRONIZATION.category
            is FixCategory.CHANGE_EXISTING_LOGIC
        )


class TestLabelValidation:
    def test_valid_label_constructs(self):
        label = make_label()
        assert label.symptom is Symptom.FAIL_STOP

    def test_byzantine_requires_mode(self):
        with pytest.raises(TaxonomyError, match="byzantine_mode"):
            make_label(symptom=Symptom.BYZANTINE)

    def test_mode_requires_byzantine(self):
        with pytest.raises(TaxonomyError, match="requires symptom=byzantine"):
            make_label(byzantine_mode=ByzantineMode.STALL)

    def test_byzantine_with_mode_is_valid(self):
        label = make_label(
            symptom=Symptom.BYZANTINE, byzantine_mode=ByzantineMode.GRAY_FAILURE
        )
        assert label.byzantine_mode is ByzantineMode.GRAY_FAILURE

    def test_config_subcategory_requires_config_trigger(self):
        with pytest.raises(TaxonomyError, match="config_subcategory"):
            make_label(config_subcategory=ConfigSubcategory.CONTROLLER)

    def test_external_kind_requires_external_trigger(self):
        with pytest.raises(TaxonomyError, match="external_kind"):
            make_label(external_kind=ExternalCallKind.SYSTEM_CALLS)

    def test_misconfiguration_needs_config_or_external_trigger(self):
        with pytest.raises(TaxonomyError, match="human_misconfiguration"):
            make_label(
                root_cause=RootCause.HUMAN_MISCONFIGURATION,
                trigger=Trigger.NETWORK_EVENTS,
            )

    def test_misconfiguration_with_config_trigger_ok(self):
        label = make_label(
            root_cause=RootCause.HUMAN_MISCONFIGURATION,
            trigger=Trigger.CONFIGURATION,
            config_subcategory=ConfigSubcategory.CONTROLLER,
        )
        assert label.trigger is Trigger.CONFIGURATION


# -- property-based round-trip ------------------------------------------------
_valid_labels = st.builds(
    lambda bug_type, root_cause, symptom, mode, fix, trigger, cfg, ext: BugLabel(
        bug_type=bug_type,
        root_cause=(
            root_cause
            if trigger in (Trigger.CONFIGURATION, Trigger.EXTERNAL_CALLS)
            or root_cause is not RootCause.HUMAN_MISCONFIGURATION
            else RootCause.MISSING_LOGIC
        ),
        symptom=symptom,
        byzantine_mode=mode if symptom is Symptom.BYZANTINE else None,
        fix=fix,
        trigger=trigger,
        config_subcategory=cfg if trigger is Trigger.CONFIGURATION else None,
        external_kind=ext if trigger is Trigger.EXTERNAL_CALLS else None,
    ),
    bug_type=st.sampled_from(BugType),
    root_cause=st.sampled_from(RootCause),
    symptom=st.sampled_from(Symptom),
    mode=st.sampled_from(ByzantineMode),
    fix=st.sampled_from(FixStrategy),
    trigger=st.sampled_from(Trigger),
    cfg=st.sampled_from(ConfigSubcategory),
    ext=st.sampled_from(ExternalCallKind),
)


@given(label=_valid_labels)
def test_label_dict_roundtrip(label: BugLabel):
    """to_dict/from_dict is lossless for every valid label."""
    assert BugLabel.from_dict(label.to_dict()) == label


@given(label=_valid_labels)
def test_label_tags_are_subset_of_dict(label: BugLabel):
    tags = label.tags()
    full = label.to_dict()
    assert all(full[k] == v for k, v in tags.items())
    assert None not in tags.values()


def test_from_dict_rejects_unknown_tag():
    data = make_label().to_dict()
    data["symptom"] = "spontaneous_combustion"
    with pytest.raises(TaxonomyError):
        BugLabel.from_dict(data)


class TestLabelStore:
    def test_add_and_get(self):
        store = LabelStore()
        store.add("ONOS-1", make_label())
        assert "ONOS-1" in store
        assert store.get("ONOS-1") == make_label()

    def test_duplicate_add_rejected(self):
        store = LabelStore()
        store.add("ONOS-1", make_label())
        with pytest.raises(TaxonomyError, match="already labeled"):
            store.add("ONOS-1", make_label())

    def test_missing_get_raises(self):
        with pytest.raises(TaxonomyError, match="no label"):
            LabelStore().get("NOPE-1")

    def test_subset(self):
        store = LabelStore({"A-1": make_label(), "A-2": make_label()})
        sub = store.subset(["A-1"])
        assert len(sub) == 1 and "A-2" not in sub

    def test_save_load_roundtrip(self, tmp_path):
        store = LabelStore({"A-1": make_label()})
        path = tmp_path / "labels.json"
        store.save(path)
        loaded = LabelStore.load(path)
        assert loaded.get("A-1") == make_label()

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TaxonomyError, match="JSON object"):
            LabelStore.load(path)
