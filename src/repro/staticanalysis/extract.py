"""Lower real Python packages into the :class:`repro.smells.CodeModel`.

This is the front-end the smells analyzer was designed to accept one day
(see the note in :mod:`repro.smells.model` about lifting the paper's
Java-only limitation): it walks actual source, builds the same
package -> class -> method graph Designite extracts from Java, and hands
it to :func:`repro.smells.detectors.analyze` *unchanged* — so the Fig-8
detectors finally run over this repo's own code instead of only the
synthetic ONOS release models.

Mapping decisions (documented because every one shapes the metrics):

* a *package* is the dotted Python package (``repro.recovery``); modules
  directly under the top package map to that package itself;
* a *class* is a top-level ``class`` statement, fully qualified as
  ``<module>.<ClassName>``; nested classes fold into their host's LOC;
* *methods* are the defs in the class body; ``_underscore`` names are
  non-public; complexity is classic cyclomatic (1 + branch points);
* *type switches* count ``if`` tests probing concrete types
  (``isinstance``/``type() is``) — the Missing Hierarchy signal;
* *dependencies* are references from a class body to other extracted
  classes, resolved through each module's import table;
* *inherited members used* are methods the subtype overrides or calls
  via ``super()`` — what Broken Hierarchy checks for IS-A behaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.smells.model import ClassModel, CodeModel, Method
from repro.staticanalysis.loader import ModuleInfo, load_paths


def extract_code_model(
    paths: Iterable[str | Path] | str | Path,
    *,
    name: str = "repro",
) -> CodeModel:
    """Extract a :class:`CodeModel` from real Python source under ``paths``."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    modules = load_paths(paths)

    # Pass 1: collect raw class records and a global name index.
    raw: list[_RawClass] = []
    by_qualified: dict[str, _RawClass] = {}
    #: simple class name -> fully qualified candidates (for same-module refs).
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                record = _RawClass(module, node)
                raw.append(record)
                by_qualified[record.fq_name] = record

    # Pass 2: resolve supertypes and dependency edges against the index.
    model = CodeModel(name=name, version="worktree")
    for record in raw:
        model.add_class(record.to_class_model(by_qualified))
    model.validate()
    return model


class _RawClass:
    """One extracted class before cross-class resolution."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.fq_name = f"{module.name}.{node.name}"
        self.package = module.package

    # -- resolution helpers ----------------------------------------------------
    def _resolve_class_ref(
        self, ref: ast.AST, index: dict[str, "_RawClass"]
    ) -> str | None:
        """Fully qualified extracted-class name for a reference, if any."""
        qualified = self.module.resolve(ref)
        if qualified is None:
            return None
        if qualified in index:
            return qualified
        # A bare name may be a sibling class in the same module.
        if "." not in qualified:
            local = f"{self.module.name}.{qualified}"
            if local in index:
                return local
        return None

    def to_class_model(self, index: dict[str, "_RawClass"]) -> ClassModel:
        node = self.node
        methods = [
            _extract_method(item)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        supertype = None
        for base in node.bases:
            resolved = self._resolve_class_ref(base, index)
            if resolved is not None:
                supertype = resolved
                break

        dependencies = self._dependencies(index)
        inherited = self._inherited_members_used(supertype, index)
        loc = (node.end_lineno or node.lineno) - node.lineno + 1
        return ClassModel(
            name=self.fq_name,
            package=self.package,
            methods=methods,
            fields=self._field_count(),
            loc=loc,
            supertype=supertype,
            inherited_members_used=inherited,
            dependencies=dependencies,
        )

    def _dependencies(self, index: dict[str, "_RawClass"]) -> frozenset[str]:
        deps: set[str] = set()
        for ref in ast.walk(self.node):
            if not isinstance(ref, (ast.Name, ast.Attribute)):
                continue
            resolved = self._resolve_class_ref(ref, index)
            if resolved is not None and resolved != self.fq_name:
                deps.add(resolved)
        return frozenset(deps)

    def _inherited_members_used(
        self, supertype: str | None, index: dict[str, "_RawClass"]
    ) -> frozenset[str]:
        if supertype is None or supertype not in index:
            return frozenset()
        super_methods = {
            item.name
            for item in index[supertype].node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        used: set[str] = set()
        # Overrides: same method name defined here and on the supertype.
        for item in self.node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in super_methods
            ):
                used.add(item.name)
        # Explicit super().method(...) calls.
        for ref in ast.walk(self.node):
            if (
                isinstance(ref, ast.Attribute)
                and isinstance(ref.value, ast.Call)
                and isinstance(ref.value.func, ast.Name)
                and ref.value.func.id == "super"
                and ref.attr in super_methods
            ):
                used.add(ref.attr)
        return frozenset(used)

    def _field_count(self) -> int:
        fields: set[str] = set()
        for item in self.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                fields.add(item.target.id)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        fields.add(target.id)
        for ref in ast.walk(self.node):
            if (
                isinstance(ref, (ast.Assign, ast.AnnAssign))
                and (targets := _assign_targets(ref))
            ):
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        fields.add(target.attr)
        return len(fields)


def _assign_targets(node: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target]


def _extract_method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Method:
    return Method(
        name=node.name,
        complexity=_cyclomatic_complexity(node),
        is_public=not node.name.startswith("_"),
        type_switches=_count_type_switches(node),
    )


def _cyclomatic_complexity(func: ast.AST) -> int:
    """Classic cyclomatic complexity: 1 + decision points."""
    complexity = 1
    for node in ast.walk(func):
        if isinstance(
            node, (ast.If, ast.For, ast.While, ast.AsyncFor, ast.IfExp, ast.Assert)
        ):
            complexity += 1
        elif isinstance(node, ast.ExceptHandler):
            complexity += 1
        elif isinstance(node, ast.BoolOp):
            complexity += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            complexity += 1 + len(node.ifs)
        elif isinstance(node, ast.match_case):
            complexity += 1
    return complexity


def _count_type_switches(func: ast.AST) -> int:
    """``if`` tests that branch on an object's concrete type."""
    count = 0
    for node in ast.walk(func):
        if isinstance(node, (ast.If, ast.IfExp)) and _probes_type(node.test):
            count += 1
    return count


def _probes_type(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
        ):
            return True
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for operand in operands:
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "type"
                ):
                    return True
    return False
