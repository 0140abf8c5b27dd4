"""Source loading for sdnlint: discovery, parsing, and name resolution.

The loader turns a set of files/directories into :class:`ModuleInfo`
records: parsed AST (with a side table of every node's parent), the
module's dotted name inferred from its package layout, and an import table
mapping every local alias to the fully qualified name it stands for.  The
import table is what lets detectors ask *semantic* questions ("is this
call ``numpy.random.default_rng``?") instead of string-matching on
whatever alias the file happens to use.

:func:`load_module` walks each tree once, breadth-first, and that walk is
the only full walk sdnlint makes of a module: it keeps every node on
:attr:`ModuleInfo.nodes`, splits the nodes into each scope's own nodes
and feeds the import table.
Detectors read that list filtered by type (:meth:`ModuleInfo.nodes_of`),
each scope's own nodes (:meth:`ModuleInfo.own_nodes`) and, for the small
subtrees they still search, ``ast.walk`` itself.  Every one of these lists
is in ``ast.walk`` order, which first-match helpers depend on: the first
hit in walk order is the node a finding points at.

Nothing sdnlint builds refers back up the tree: parents live in
:attr:`ModuleInfo.parents`, not on the nodes, so a module and all it
holds are freed by reference counting the moment the last reference
goes.  That is what lets the lint entry points run under
:func:`repro._collector._collector_paused`: the cyclic collector would
otherwise traverse every live tree again and again while the next one is
parsed, only to find nothing to free.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import StaticAnalysisError

#: Nodes whose bodies are a scope of their own: a ``with lock:`` inside a
#: nested ``def`` is *not* held by the outer function at runtime, so
#: lexical analyses stop at these boundaries.
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class ModuleInfo:
    """One parsed source module plus its resolution tables."""

    path: Path  # absolute
    name: str  # dotted module name, e.g. "repro.recovery.journal"
    package: str  # dotted package, e.g. "repro.recovery"
    tree: ast.Module
    source: str
    #: alias visible in this module -> fully qualified dotted name.
    imports: dict[str, str] = field(default_factory=dict)
    #: every node of ``tree``, in ``ast.walk`` order (breadth-first).
    nodes: list[ast.AST] = field(default_factory=list, repr=False)
    #: the module and each def and class -> its own nodes (see own_nodes).
    scopes: dict[ast.AST, list[ast.AST]] = field(default_factory=dict, repr=False)
    _typed: dict[tuple[type, ...], list[ast.AST]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _parents: dict[ast.AST, ast.AST] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Every node but the root -> the node ``ast.walk`` reaches it from
        (a leaf ``ast.parse`` shares, like ``Load()``, keeps the last one).

        Built from the node list the first time it is asked for: only
        modules with an ``open()`` call or a lock constructor ask, and a
        table for every module would weigh more than all the node lists.
        """
        if self._parents is None:
            self._parents = {
                child: node
                for node in self.nodes
                for child in ast.iter_child_nodes(node)
            }
        return self._parents

    def nodes_of(self, *types: type) -> list[ast.AST]:
        """The module's nodes that are instances of ``types``, in walk order."""
        found = self._typed.get(types)
        if found is None:
            found = self._typed[types] = [
                node for node in self.nodes if isinstance(node, types)
            ]
        return found

    def own_nodes(self, scope: ast.AST) -> list[ast.AST]:
        """The nodes of ``scope`` (the module or one of its defs), in walk
        order, without the insides of nested defs and classes.

        A nested def or class is listed itself, but not its body: that is
        a scope of its own.
        """
        return self.scopes[scope]

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def line_text(self, lineno: int) -> str:
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> str | None:
        """Fully qualified dotted name for a Name/Attribute chain, or None.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``"numpy.random.default_rng"``; a bare builtin like ``open`` (no
        import shadowing it) resolves to ``"open"``.
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()
        head = parts[0]
        mapped = self.imports.get(head)
        if mapped is not None:
            parts[0:1] = mapped.split(".")
        return ".".join(parts)


def parent_of(module: ModuleInfo, node: ast.AST) -> ast.AST | None:
    return module.parents.get(node)


def _walk_once(
    tree: ast.Module,
) -> tuple[list[ast.AST], dict[ast.AST, list[ast.AST]]]:
    """Every node of ``tree`` in ``ast.walk`` order, and each scope's own
    nodes.

    A child belongs to its parent's scope when the parent opens one (the
    module, a def or a class), else to the scope its parent belongs to.
    ``ast.parse`` shares one ``Load()``, ``Add()``, ... leaf between many
    parents; like ``ast.walk``, the lists hold it once per occurrence.
    Children are read off ``_fields`` in ``ast.iter_child_nodes`` order,
    without its two generator layers.
    """
    nodes: list[ast.AST] = [tree]
    scopes: dict[ast.AST, list[ast.AST]] = {}
    #: the own-node list each entry of ``nodes`` is in (the root: none).
    listed_in: list[list[ast.AST] | None] = [None]
    # Both lists grow while iterated: parents are taken breadth-first.
    for parent, scope_nodes in zip(nodes, listed_in):
        if scope_nodes is None or isinstance(parent, _NESTED_SCOPES):
            scope_nodes = scopes[parent] = []
        for name in parent._fields:
            value = getattr(parent, name, None)
            if isinstance(value, ast.AST):
                value = (value,)
            elif not isinstance(value, list):
                continue
            for child in value:
                if isinstance(child, ast.AST):
                    nodes.append(child)
                    listed_in.append(scope_nodes)
                    scope_nodes.append(child)
    return nodes, scopes


def _import_table(nodes: list[ast.AST]) -> dict[str, str]:
    """Map each locally bound import alias to its fully qualified target
    (a later binding of the same alias, in walk order, wins)."""
    table: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    # ``import os.path`` binds the *top-level* name ``os``.
                    top = alias.name.split(".")[0]
                    table[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports: module name is ambiguous here
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                table[bound] = f"{node.module}.{alias.name}"
    return table


def module_name_for(path: Path) -> tuple[str, str]:
    """Infer (dotted module name, dotted package) from the package layout.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/recovery/journal.py`` becomes ``repro.recovery.journal``
    in package ``repro.recovery``.  A file outside any package is its own
    single-segment module.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    cursor = path.parent
    while (cursor / "__init__.py").exists():
        parts.insert(0, cursor.name)
        parent = cursor.parent
        if parent == cursor:
            break
        cursor = parent
    if not parts:
        parts = [path.stem]
    name = ".".join(parts)
    if path.name == "__init__.py":
        package = name
    else:
        package = ".".join(parts[:-1]) or name
    return name, package


def iter_source_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, deterministically ordered."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise StaticAnalysisError(f"no such path: {path}")
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise StaticAnalysisError(f"not a Python source path: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def load_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises on syntax errors)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise StaticAnalysisError(
            f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
        ) from exc
    nodes, scopes = _walk_once(tree)
    name, package = module_name_for(path)
    return ModuleInfo(
        path=path,
        name=name,
        package=package,
        tree=tree,
        source=source,
        imports=_import_table(nodes),
        nodes=nodes,
        scopes=scopes,
    )


def load_paths(paths: Iterable[str | Path]) -> list[ModuleInfo]:
    """Load every module under ``paths``, in deterministic path order."""
    return [load_module(path) for path in iter_source_files(paths)]
