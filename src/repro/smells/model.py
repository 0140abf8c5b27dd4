"""Code model: the structural graph the smell detectors analyze.

This is what Designite extracts from Java source before computing metrics —
packages containing classes, classes containing methods, plus class-level
dependency edges and inheritance links.  Building it explicitly lets the
analyzer run on synthetic release models (and, in principle, on any language
for which a front-end produces this graph — lifting the Java-only limitation
the paper notes in SS VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CodeModelError


@dataclass(frozen=True)
class Method:
    """A method with the attributes the metrics need."""

    name: str
    complexity: int = 1  # cyclomatic complexity
    is_public: bool = True
    #: Number of switch/if-else chains that branch on an object's *type* —
    #: the tell-tale of a Missing Hierarchy smell.
    type_switches: int = 0

    def __post_init__(self) -> None:
        if self.complexity < 1:
            raise CodeModelError(f"method {self.name}: complexity must be >= 1")


@dataclass
class ClassModel:
    """A class: methods, size, inheritance, and outgoing dependencies."""

    name: str  # fully qualified, e.g. "org.onos.net.intent.impl.Compiler"
    package: str
    methods: list[Method] = field(default_factory=list)
    fields: int = 0
    loc: int = 0
    supertype: str | None = None  # fully qualified class name
    #: Names of supertype methods this class overrides or calls.
    inherited_members_used: frozenset[str] = frozenset()
    #: Fully qualified names of classes this class depends on.
    dependencies: frozenset[str] = frozenset()

    @property
    def public_method_count(self) -> int:
        return sum(1 for m in self.methods if m.is_public)

    @property
    def type_switch_count(self) -> int:
        return sum(m.type_switches for m in self.methods)


@dataclass
class PackageModel:
    """A package (Designite's 'component'): a named set of classes."""

    name: str
    classes: dict[str, ClassModel] = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def total_loc(self) -> int:
        return sum(c.loc for c in self.classes.values())


class CodeModel:
    """A whole-codebase structural graph."""

    def __init__(self, name: str, version: str) -> None:
        self.name = name
        self.version = version
        self._packages: dict[str, PackageModel] = {}
        self._classes: dict[str, ClassModel] = {}

    # -- construction ---------------------------------------------------------
    def add_class(self, cls: ClassModel) -> None:
        """Register a class; its package is created on demand."""
        if cls.name in self._classes:
            raise CodeModelError(f"duplicate class {cls.name!r}")
        package = self._packages.setdefault(cls.package, PackageModel(cls.package))
        package.classes[cls.name] = cls
        self._classes[cls.name] = cls

    def validate(self) -> None:
        """Check referential integrity of supertype/dependency edges.

        External references (JDK, third-party libraries) are allowed — an
        edge pointing outside the model is simply not a modeled class — but a
        class must not depend on itself, and supertypes that *are* in the
        model must exist under the recorded name.
        """
        for cls in self._classes.values():
            if cls.name in cls.dependencies:
                raise CodeModelError(f"{cls.name} depends on itself")

    # -- lookup ------------------------------------------------------------------
    @property
    def packages(self) -> dict[str, PackageModel]:
        return dict(self._packages)

    @property
    def classes(self) -> dict[str, ClassModel]:
        return dict(self._classes)

    def package(self, name: str) -> PackageModel:
        try:
            return self._packages[name]
        except KeyError:
            raise CodeModelError(f"no such package {name!r}") from None

    def get_class(self, name: str) -> ClassModel:
        try:
            return self._classes[name]
        except KeyError:
            raise CodeModelError(f"no such class {name!r}") from None

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def iter_classes(self) -> Iterator[ClassModel]:
        return iter(self._classes.values())

    # -- derived edges --------------------------------------------------------

    def package_dependencies(self) -> dict[str, set[str]]:
        """Package -> set of packages it depends on (class edges lifted)."""
        deps: dict[str, set[str]] = {name: set() for name in self._packages}
        for cls in self._classes.values():
            for target_name in cls.dependencies:
                target = self._classes.get(target_name)
                if target is not None and target.package != cls.package:
                    deps[cls.package].add(target.package)
        return deps

    def class_count(self) -> int:
        return len(self._classes)
