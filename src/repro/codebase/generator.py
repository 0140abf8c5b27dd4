"""Generator for ONOS-like code models across releases 1.12 -> 2.3."""

from __future__ import annotations

import random

from repro.errors import CodeModelError
from repro.paperdata import INTENT_IMPL_CLASSES, ONOS_RELEASES
from repro.smells.model import ClassModel, CodeModel, Method

#: Per-release shape parameters, index-aligned with ONOS_RELEASES.
#: The trends implement Fig 8:
#:   god components roughly constant; unstable-dependency edges steadily
#:   decreasing; insufficient modularization spiking 1.12->1.14 then flat;
#:   broken hierarchy spiking then declining; hubs and missing hierarchy low.
_UNSTABLE_EDGES = (14, 13, 12, 11, 10, 9, 8, 7)
_INSUFFICIENT = (18, 24, 28, 28, 27, 27, 28, 27)
_BROKEN_HIERARCHY = (12, 18, 22, 18, 14, 11, 9, 8)
_HUBS = (3, 3, 4, 3, 3, 2, 3, 3)
_MISSING_HIERARCHY = (4, 5, 5, 4, 4, 4, 3, 3)
_GOD_PACKAGES = 6  # constant across releases

#: Fig 9 example: Run extends ElectionOperation with no IS-A relation until
#: the ONOS-6594 refactor re-parents it under AsyncLeaderElector.
_ONOS_6594_FIX_RELEASE = "2.0"


class OnosCodebaseGenerator:
    """Build one :class:`CodeModel` per ONOS release, deterministically."""

    def __init__(self, *, seed: int = 7) -> None:
        self.seed = seed

    def release_index(self, version: str) -> int:
        try:
            return ONOS_RELEASES.index(version)
        except ValueError:
            raise CodeModelError(
                f"unknown ONOS release {version!r}; known: {ONOS_RELEASES}"
            ) from None

    def _intent_impl_classes(self, index: int) -> int:
        """Interpolate net.intent.impl growth 49 -> 107 across the series."""
        start = INTENT_IMPL_CLASSES["1.12"]
        end = INTENT_IMPL_CLASSES["2.3"]
        steps = len(ONOS_RELEASES) - 1
        return round(start + (end - start) * index / steps)

    def generate(self, version: str) -> CodeModel:
        """The code model for one release."""
        index = self.release_index(version)
        rng = random.Random(self.seed * 1000 + index)
        model = CodeModel(name="ONOS", version=version)

        # -- god component packages (constant count, one of them growing) ----
        god_sizes = [self._intent_impl_classes(index)] + [
            rng.randint(34, 48) for _ in range(_GOD_PACKAGES - 1)
        ]
        god_names = ["org.onosproject.net.intent.impl"] + [
            f"org.onosproject.core.subsystem{i}" for i in range(1, _GOD_PACKAGES)
        ]
        for pkg_name, n_classes in zip(god_names, god_sizes):
            for c in range(n_classes):
                model.add_class(
                    ClassModel(
                        name=f"{pkg_name}.Class{c}",
                        package=pkg_name,
                        methods=[Method(f"m{m}") for m in range(rng.randint(3, 9))],
                        loc=rng.randint(80, 400),
                    )
                )

        # -- regular packages -------------------------------------------------
        n_regular = 30 + index  # codebase grows slowly
        regular_names = [f"org.onosproject.module{i}" for i in range(n_regular)]
        for pkg_name in regular_names:
            for c in range(rng.randint(6, 18)):
                model.add_class(
                    ClassModel(
                        name=f"{pkg_name}.Class{c}",
                        package=pkg_name,
                        methods=[Method(f"m{m}") for m in range(rng.randint(2, 8))],
                        loc=rng.randint(50, 500),
                    )
                )

        # -- app packages make the core packages stable (high Ca) -------------
        # Three dependents per god package keep every god package's
        # instability below the utility packages' (so each bad edge below is
        # a genuine Stable-Dependencies-Principle violation).
        for i in range(3 * _GOD_PACKAGES):
            pkg_name = f"org.onosproject.app{i}"
            target_pkg = god_names[i % len(god_names)]
            model.add_class(
                ClassModel(
                    name=f"{pkg_name}.App",
                    package=pkg_name,
                    methods=[Method("activate"), Method("deactivate")],
                    loc=rng.randint(100, 300),
                    dependencies=frozenset({f"{target_pkg}.Class0"}),
                )
            )

        # -- unstable-dependency edges (declining across releases) ------------
        for i in range(_UNSTABLE_EDGES[index]):
            # A throwaway unstable utility package: depends on two regular
            # packages (Ce=2) and is depended on only by the bad edge.
            util_pkg = f"org.onosproject.util.unstable{i}"
            util_deps = frozenset(
                f"{regular_names[(3 * i + k) % n_regular]}.Class0" for k in range(3)
            )
            model.add_class(
                ClassModel(
                    name=f"{util_pkg}.Helper",
                    package=util_pkg,
                    methods=[Method("help")],
                    loc=120,
                    dependencies=util_deps,
                )
            )
            # The bad edge: a stable god package depending on the unstable
            # utility (violates the Stable Dependencies Principle).
            source_pkg = god_names[i % len(god_names)]
            model.add_class(
                ClassModel(
                    name=f"{source_pkg}.BadDep{i}",
                    package=source_pkg,
                    methods=[Method("use")],
                    loc=90,
                    dependencies=frozenset({f"{util_pkg}.Helper"}),
                )
            )

        # -- insufficient modularization (spike then flat) ---------------------
        for i in range(_INSUFFICIENT[index]):
            pkg_name = regular_names[i % n_regular]
            model.add_class(
                ClassModel(
                    name=f"{pkg_name}.Fat{i}",
                    package=pkg_name,
                    methods=[Method(f"m{m}", complexity=6) for m in range(30)],
                    loc=1_600,
                )
            )

        # -- broken hierarchy (spike then decline; includes Fig 9) ------------
        broken = _BROKEN_HIERARCHY[index]
        fixed = self.release_index(_ONOS_6594_FIX_RELEASE) <= index
        # The Fig 9 instance itself:
        model.add_class(
            ClassModel(
                name="org.onosproject.store.primitives.ElectionOperation",
                package="org.onosproject.store.primitives",
                methods=[Method("topic"), Method("nodeId"), Method("apply")],
                loc=120,
            )
        )
        model.add_class(
            ClassModel(
                name="org.onosproject.store.primitives.AsyncLeaderElector",
                package="org.onosproject.store.primitives",
                methods=[Method("run"), Method("withdraw"), Method("anoint")],
                loc=260,
            )
        )
        model.add_class(
            ClassModel(
                name="org.onosproject.store.primitives.Run",
                package="org.onosproject.store.primitives",
                methods=[Method("topic"), Method("nodeId")],
                loc=60,
                supertype=(
                    "org.onosproject.store.primitives.AsyncLeaderElector"
                    if fixed
                    else "org.onosproject.store.primitives.ElectionOperation"
                ),
                inherited_members_used=frozenset({"run"}) if fixed else frozenset(),
            )
        )
        remaining = broken - (0 if fixed else 1)
        for i in range(max(0, remaining)):
            pkg_name = regular_names[(i + 3) % n_regular]
            parent = f"{pkg_name}.Base{i}"
            model.add_class(
                ClassModel(
                    name=parent,
                    package=pkg_name,
                    methods=[Method("base0"), Method("base1")],
                    loc=100,
                )
            )
            model.add_class(
                ClassModel(
                    name=f"{pkg_name}.Orphan{i}",
                    package=pkg_name,
                    methods=[Method("own")],
                    loc=70,
                    supertype=parent,
                    inherited_members_used=frozenset(),
                )
            )

        # -- hub-like modularization (low, flat) -------------------------------
        for i in range(_HUBS[index]):
            pkg_name = regular_names[(i + 11) % n_regular]
            hub_name = f"{pkg_name}.Hub{i}"
            fan_out_targets = frozenset(
                f"{regular_names[(i + k) % n_regular]}.Class0" for k in range(1, 10)
            )
            model.add_class(
                ClassModel(
                    name=hub_name,
                    package=pkg_name,
                    methods=[Method("route", complexity=4)],
                    loc=420,
                    dependencies=fan_out_targets,
                )
            )
            for k in range(9):
                model.add_class(
                    ClassModel(
                        name=f"{pkg_name}.HubUser{i}_{k}",
                        package=pkg_name,
                        methods=[Method("call")],
                        loc=60,
                        dependencies=frozenset({hub_name}),
                    )
                )

        # -- missing hierarchy (low, flat) --------------------------------------
        for i in range(_MISSING_HIERARCHY[index]):
            pkg_name = regular_names[(i + 17) % n_regular]
            model.add_class(
                ClassModel(
                    name=f"{pkg_name}.TypeSwitcher{i}",
                    package=pkg_name,
                    methods=[
                        Method("dispatch", complexity=9, type_switches=2),
                        Method("render", complexity=7, type_switches=2),
                    ],
                    loc=380,
                )
            )

        model.validate()
        return model


def release_series() -> dict[str, CodeModel]:
    """Code models for every release in :data:`ONOS_RELEASES`, in order."""
    generator = OnosCodebaseGenerator(seed=7)
    return {version: generator.generate(version) for version in ONOS_RELEASES}
