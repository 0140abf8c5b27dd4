"""Code model, structural metrics, and the six smell detectors."""

from __future__ import annotations

import pytest

from repro.errors import CodeModelError
from repro.paperdata import ONOS_RELEASES, SMELL_TRENDS
from repro.smells import (
    ClassModel,
    CodeModel,
    Method,
    SmellKind,
    analyze,
    class_fan_in,
    class_fan_out,
    weighted_methods_per_class,
)
from repro.smells.metrics import all_package_instabilities


def small_class(name, package, deps=(), supertype=None, used=frozenset(), **kw):
    defaults = dict(
        methods=[Method("run")],
        loc=100,
        dependencies=frozenset(deps),
        supertype=supertype,
        inherited_members_used=frozenset(used),
    )
    defaults.update(kw)
    return ClassModel(name=name, package=package, **defaults)


@pytest.fixture
def model() -> CodeModel:
    m = CodeModel("demo", "1.0")
    m.add_class(small_class("a.X", "a", deps=["b.Y"]))
    m.add_class(small_class("b.Y", "b", deps=["c.Z"]))
    m.add_class(small_class("c.Z", "c"))
    return m


class TestCodeModel:
    def test_duplicate_class_rejected(self, model):
        with pytest.raises(CodeModelError, match="duplicate"):
            model.add_class(small_class("a.X", "a"))

    def test_self_dependency_rejected(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("a.X", "a", deps=["a.X"]))
        with pytest.raises(CodeModelError, match="depends on itself"):
            m.validate()

    def test_unknown_package_lookup(self, model):
        with pytest.raises(CodeModelError, match="no such package"):
            model.package("zzz")

    def test_package_dependencies_lifted(self, model):
        deps = model.package_dependencies()
        assert deps["a"] == {"b"}
        assert deps["b"] == {"c"}
        assert deps["c"] == set()

    def test_external_deps_ignored(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("a.X", "a", deps=["java.util.List"]))
        assert m.package_dependencies()["a"] == set()

    def test_method_complexity_validated(self):
        with pytest.raises(CodeModelError):
            Method("bad", complexity=0)


class TestMetrics:
    def test_fan_in_out(self, model):
        assert class_fan_out(model, "a.X") == 1
        assert class_fan_in(model, "b.Y") == 1
        assert class_fan_in(model, "a.X") == 0

    def test_wmc(self):
        cls = small_class(
            "a.X", "a", methods=[Method("m1", complexity=3), Method("m2", complexity=4)]
        )
        assert weighted_methods_per_class(cls) == 7

    def test_instability_extremes(self, model):
        # 'a' depends on one package, nothing depends on it -> I = 1.
        instabilities = all_package_instabilities(model)
        assert instabilities["a"] == 1.0
        # 'c' is depended on, depends on nothing -> I = 0.
        assert instabilities["c"] == 0.0

    def test_isolated_package_is_unstable_by_convention(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("solo.X", "solo"))
        assert all_package_instabilities(m) == {"solo": 1.0}


class TestKindsFilter:
    def test_default_runs_all(self, model):
        assert analyze(model).counts().keys() == set(SmellKind)

    def test_subset_runs_only_selected(self):
        m = CodeModel("demo", "1.0")
        for i in range(40):
            m.add_class(small_class(f"big.C{i}", "big", loc=2_000))
        full = analyze(m)
        assert full.count(SmellKind.GOD_COMPONENT) == 1
        assert full.count(SmellKind.INSUFFICIENT_MODULARIZATION) == 40
        only_god = analyze(m, kinds=[SmellKind.GOD_COMPONENT])
        assert {i.kind for i in only_god.instances} == {SmellKind.GOD_COMPONENT}
        assert only_god.count(SmellKind.GOD_COMPONENT) == 1

    def test_order_is_canonical_not_given(self):
        m = CodeModel("demo", "1.0")
        for i in range(40):
            m.add_class(small_class(f"big.C{i}", "big", loc=2_000))
        shuffled = analyze(
            m,
            kinds=[SmellKind.INSUFFICIENT_MODULARIZATION, SmellKind.GOD_COMPONENT],
        )
        assert shuffled.instances[0].kind is SmellKind.GOD_COMPONENT

    def test_empty_kinds_runs_nothing(self, model):
        assert analyze(model, kinds=[]).instances == []

    def test_unknown_kind_rejected(self, model):
        with pytest.raises(CodeModelError):
            analyze(model, kinds=["god_component"])  # strings are not kinds


class TestDetectors:
    def test_god_component_by_class_count(self):
        m = CodeModel("demo", "1.0")
        for i in range(40):
            m.add_class(small_class(f"big.C{i}", "big"))
        report = analyze(m)
        assert report.count(SmellKind.GOD_COMPONENT) == 1
        assert report.by_kind(SmellKind.GOD_COMPONENT)[0].subject == "big"

    def test_god_component_by_loc(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("big.C", "big", loc=50_000))
        report = analyze(m)
        assert report.count(SmellKind.GOD_COMPONENT) == 1

    def test_unstable_dependency_detected(self):
        m = CodeModel("demo", "1.0")
        # stable package: 2 dependents, one outgoing (the bad edge).
        m.add_class(small_class("stable.S", "stable", deps=["flaky.F"]))
        m.add_class(small_class("user1.U", "user1", deps=["stable.S"]))
        m.add_class(small_class("user2.U", "user2", deps=["stable.S"]))
        # flaky: depends on two others, no dependents besides stable.
        m.add_class(small_class("flaky.F", "flaky", deps=["x.X", "y.Y"]))
        m.add_class(small_class("x.X", "x"))
        m.add_class(small_class("y.Y", "y"))
        report = analyze(m)
        subjects = [i.subject for i in report.by_kind(SmellKind.UNSTABLE_DEPENDENCY)]
        assert "stable" in subjects

    def test_hub_detected(self):
        m = CodeModel("demo", "1.0")
        hub_deps = [f"t{i}.T" for i in range(9)]
        for dep in hub_deps:
            pkg, name = dep.split(".")
            m.add_class(small_class(dep, pkg))
        m.add_class(small_class("h.Hub", "h", deps=hub_deps))
        for i in range(9):
            m.add_class(small_class(f"u{i}.U", f"u{i}", deps=["h.Hub"]))
        report = analyze(m)
        assert report.count(SmellKind.HUB_LIKE_MODULARIZATION) == 1

    def test_insufficient_modularization_by_wmc(self):
        m = CodeModel("demo", "1.0")
        m.add_class(
            small_class(
                "a.Fat", "a",
                methods=[Method(f"m{i}", complexity=10) for i in range(15)],
            )
        )
        report = analyze(m)
        assert report.count(SmellKind.INSUFFICIENT_MODULARIZATION) == 1

    def test_broken_hierarchy_detected_and_fixed(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("a.Base", "a", methods=[Method("base")]))
        m.add_class(small_class("a.Orphan", "a", supertype="a.Base"))
        assert analyze(m).count(SmellKind.BROKEN_HIERARCHY) == 1

        fixed = CodeModel("demo", "1.1")
        fixed.add_class(small_class("a.Base", "a", methods=[Method("base")]))
        fixed.add_class(
            small_class("a.Orphan", "a", supertype="a.Base", used=("base",))
        )
        assert analyze(fixed).count(SmellKind.BROKEN_HIERARCHY) == 0

    def test_broken_hierarchy_ignores_external_supertype(self):
        m = CodeModel("demo", "1.0")
        m.add_class(small_class("a.X", "a", supertype="java.lang.Thread"))
        assert analyze(m).count(SmellKind.BROKEN_HIERARCHY) == 0

    def test_missing_hierarchy_detected(self):
        m = CodeModel("demo", "1.0")
        m.add_class(
            small_class(
                "a.Switcher", "a",
                methods=[Method("dispatch", complexity=8, type_switches=4)],
            )
        )
        assert analyze(m).count(SmellKind.MISSING_HIERARCHY) == 1


class TestOnosSeries:
    def test_every_release_generated(self, onos_models):
        assert tuple(onos_models) == ONOS_RELEASES

    def test_intent_impl_growth(self, onos_models):
        first = onos_models["1.12"].package("org.onosproject.net.intent.impl")
        last = onos_models["2.3"].package("org.onosproject.net.intent.impl")
        assert first.class_count < last.class_count
        assert first.class_count == pytest.approx(49, abs=5)
        assert last.class_count == pytest.approx(107, abs=5)

    def test_fig8_trends(self, onos_models):
        counts = {
            version: analyze(model).counts()
            for version, model in onos_models.items()
        }
        series = {
            kind: [counts[v][kind] for v in ONOS_RELEASES] for kind in SmellKind
        }
        god = series[SmellKind.GOD_COMPONENT]
        assert max(god) - min(god) <= 1  # constant
        unstable = series[SmellKind.UNSTABLE_DEPENDENCY]
        assert unstable[0] > unstable[-1]  # decreasing
        insufficient = series[SmellKind.INSUFFICIENT_MODULARIZATION]
        assert insufficient[2] > insufficient[0]  # spike 1.12 -> 1.14
        broken = series[SmellKind.BROKEN_HIERARCHY]
        assert broken[2] == max(broken) and broken[-1] == min(broken)

    def test_onos_6594_reparenting(self, onos_models):
        run_before = onos_models["1.15"].get_class(
            "org.onosproject.store.primitives.Run"
        )
        run_after = onos_models["2.0"].get_class(
            "org.onosproject.store.primitives.Run"
        )
        assert run_before.supertype.endswith("ElectionOperation")
        assert run_after.supertype.endswith("AsyncLeaderElector")
        assert run_after.inherited_members_used

    def test_generation_deterministic(self):
        from repro.codebase import OnosCodebaseGenerator

        a = OnosCodebaseGenerator(seed=3).generate("1.13")
        b = OnosCodebaseGenerator(seed=3).generate("1.13")
        assert a.class_count() == b.class_count()

    def test_unknown_release_rejected(self):
        from repro.codebase import OnosCodebaseGenerator

        with pytest.raises(CodeModelError, match="unknown ONOS release"):
            OnosCodebaseGenerator().generate("9.9")
