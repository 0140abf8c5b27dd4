"""Concurrency detectors (paper: concurrency root cause, Table I).

The study files concurrency under controller-logic root causes and notes
its bugs are disproportionately non-deterministic — which is why they are
the right target for *static* analysis: the schedule that triggers them
may never appear in tests.

* ``lock-order-cycle`` — builds a lock-order graph from lexically nested
  ``with <lock>:`` acquisitions across every scanned module and reports
  each strongly connected component (a potential ABBA deadlock).
* ``unlocked-shared-write`` — a function submitted to a ``WorkPool`` /
  executor / ``threading.Thread`` that mutates module-global or
  ``global``-declared state outside any ``with <lock>:`` block.  WorkPool
  tasks are contractually pure (see :mod:`repro.parallel.executor`); a
  shared-state write is how that contract silently regresses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.staticanalysis.checks.base import AnalysisContext, Detector
from repro.staticanalysis.loader import ModuleInfo, parent_of
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause

_LOCK_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
}

_LOCKISH_SEGMENTS = ("lock", "mutex", "semaphore", "cond")

_POOL_CONSTRUCTORS = (
    "WorkPool", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
)

_SUBMIT_METHODS = {"map", "starmap", "submit", "apply_async", "imap"}

_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft",
}


def _segment_is_lockish(name: str) -> bool:
    lowered = name.lower()
    return any(tag in lowered for tag in _LOCKISH_SEGMENTS)


@dataclass
class _LockNames:
    """Per-module registry of names known to be bound to lock objects."""

    module_level: set[str] = field(default_factory=set)
    #: class name -> attribute names assigned a Lock() in any method.
    class_attrs: dict[str, set[str]] = field(default_factory=dict)


def _collect_lock_names(module: ModuleInfo) -> _LockNames:
    names = _LockNames()
    #: top-level class -> names assigned a Lock() anywhere inside it.
    class_locks: dict[ast.AST, set[str]] = {}
    for node in module.nodes_of(ast.Assign):
        if not _is_lock_ctor(node.value, module):
            continue
        statement = _top_level_statement(node, module)
        if statement is node:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.module_level.add(target.id)
        elif isinstance(statement, ast.ClassDef):
            attrs = class_locks.setdefault(statement, set())
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
                elif isinstance(target, ast.Name):
                    attrs.add(target.id)
    # In body order, so a later class of the same name wins.
    for statement in module.tree.body:
        if statement in class_locks:
            names.class_attrs[statement.name] = class_locks[statement]
    return names


def _top_level_statement(node: ast.AST, module: ModuleInfo) -> ast.AST:
    """The statement of the module body that holds ``node``."""
    while (parent := parent_of(module, node)) is not module.tree:
        node = parent
    return node


def _is_lock_ctor(value: ast.AST, module: ModuleInfo) -> bool:
    return (
        isinstance(value, ast.Call)
        and module.resolve(value.func) in _LOCK_CONSTRUCTORS
    )


def _lock_identity(
    expr: ast.AST,
    module: ModuleInfo,
    lock_names: _LockNames,
    class_name: str | None,
) -> str | None:
    """Canonical identity if ``expr`` looks like a lock acquisition."""
    if isinstance(expr, ast.Name):
        known = expr.id in lock_names.module_level
        if known or _segment_is_lockish(expr.id):
            resolved = module.resolve(expr)
            if resolved and "." in resolved:  # imported lock: fq already
                return resolved
            return f"{module.name}.{expr.id}"
        return None
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if isinstance(base, ast.Name) and base.id == "self" and class_name:
            attrs = lock_names.class_attrs.get(class_name, set())
            if expr.attr in attrs or _segment_is_lockish(expr.attr):
                return f"{module.name}.{class_name}.{expr.attr}"
            return None
        if _segment_is_lockish(expr.attr):
            resolved = module.resolve(expr)
            return resolved or f"{module.name}.<expr>.{expr.attr}"
    return None


class LockOrderCycleDetector(Detector):
    id = "lock-order-cycle"
    family = "concurrency"
    description = "cyclic lock-acquisition order across with-blocks (ABBA)"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.CONCURRENCY

    def __init__(self) -> None:
        #: lexical nesting; each edge's site is its (module, with statement).
        self._locks = LockGraph()

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        lock_names = _collect_lock_names(module)
        self._walk(module.tree.body, module, lock_names, None, [])
        return iter(())

    def _walk(
        self,
        body: list[ast.stmt],
        module: ModuleInfo,
        lock_names: _LockNames,
        class_name: str | None,
        held: list[str],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._walk(stmt.body, module, lock_names, stmt.name, [])
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def does not run under the enclosing with.
                self._walk(stmt.body, module, lock_names, class_name, [])
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: list[str] = []
                for item in stmt.items:
                    identity = _lock_identity(
                        item.context_expr, module, lock_names, class_name
                    )
                    if identity is None:
                        continue
                    for outer in held + acquired:
                        if outer != identity:
                            self._locks.add(outer, identity, (module, stmt))
                    acquired.append(identity)
                self._walk(
                    stmt.body, module, lock_names, class_name, held + acquired
                )
            else:
                for child_body in _stmt_bodies(stmt):
                    self._walk(child_body, module, lock_names, class_name, held)

    def finalize(self, ctx: AnalysisContext) -> Iterator[Finding]:
        locks, self._locks = self._locks, LockGraph()
        for members, edges in locks.cycles():
            # Anchor at the first edge of the cycle, in deterministic order,
            # and name a cycle through it that the graph really has.
            outer, inner = edges[0]
            module, node = locks.sites[outer, inner]
            path = " -> ".join([outer, *locks.path(inner, outer, members)])
            found = self.finding(
                module, ctx, node,
                f"lock-order cycle {path}: these locks are acquired in "
                "conflicting orders; impose a global acquisition order",
            )
            if found is not None:
                yield found


class LockGraph:
    """Lock-order edges, each ``(outer, inner)``: ``inner`` was acquired
    while ``outer`` was held.  No edge joins a lock to itself, so every
    strongly connected component with an edge inside it is a cycle."""

    def __init__(self) -> None:
        #: (outer, inner) -> the site that first recorded the edge.
        self.sites: dict[tuple[str, str], object] = {}
        self._successors: dict[str, set[str]] = {}

    def add(self, outer: str, inner: str, site: object) -> bool:
        """Record ``outer -> inner`` at ``site``; True when the edge is new
        (a known edge keeps its first site)."""
        if (outer, inner) in self.sites:
            return False
        self.sites[outer, inner] = site
        self._successors.setdefault(outer, set()).add(inner)
        self._successors.setdefault(inner, set())
        return True

    def cycles(self) -> Iterator[tuple[set[str], list[tuple[str, str]]]]:
        """Each strongly connected component that has an edge inside it, in
        sorted order, with those edges sorted."""
        for component in strongly_connected(self._successors):
            members = set(component)
            edges = sorted(
                edge for edge in self.sites
                if edge[0] in members and edge[1] in members
            )
            if edges:
                yield members, edges

    def path(self, start: str, goal: str, members: set[str]) -> list[str]:
        """A shortest lock path ``start -> ... -> goal`` inside one strongly
        connected component (breadth-first, successors in sorted order)."""
        parent = {start: start}
        frontier = [start]
        while goal not in parent:
            following = []
            for node in frontier:
                for nxt in sorted(
                    (self._successors[node] & members) - parent.keys()
                ):
                    parent[nxt] = node
                    following.append(nxt)
            frontier = following
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return path[::-1]


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    if isinstance(stmt, ast.Try):
        for handler in stmt.handlers:
            bodies.append(handler.body)
    return bodies


def strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan over a lock-order graph, deterministic order: every
    component as a sorted node list."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index_of:
            continue
        work: list[tuple[str, iter]] = [(start, iter(sorted(graph[start])))]
        index_of[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return sorted(components)


class UnlockedSharedWriteDetector(Detector):
    id = "unlocked-shared-write"
    family = "concurrency"
    description = "pool/thread task mutating shared state without a lock"
    severity = Severity.WARNING
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.CONCURRENCY

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        pool_names = self._pool_names(module)
        for node in module.nodes_of(ast.Call):
            task_ref = self._task_reference(node, module, pool_names)
            if task_ref is None:
                continue
            resolved = ctx.resolve_function(module, task_ref)
            if resolved is None:
                continue
            task_module, task_def = resolved
            yield from self._check_task(task_module, task_def, ctx)

    @staticmethod
    def _pool_names(module: ModuleInfo) -> set[str]:
        """Names assigned from a pool/executor constructor in this module."""
        names: set[str] = set()
        for node in module.nodes_of(ast.Assign):
            if len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if (
                isinstance(value, ast.Call)
                and (qual := module.resolve(value.func)) is not None
                and qual.split(".")[-1] in _POOL_CONSTRUCTORS
            ):
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    names.add(target.attr)
        return names

    def _task_reference(
        self, call: ast.Call, module: ModuleInfo, pool_names: set[str]
    ) -> ast.AST | None:
        """The function expression submitted as a task, if this is a submit."""
        func = call.func
        # threading.Thread(target=fn) / multiprocessing.Process(target=fn)
        if module.resolve(func) in ("threading.Thread", "multiprocessing.Process"):
            for keyword in call.keywords:
                if keyword.arg == "target":
                    return keyword.value
            return None
        if not (isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS):
            return None
        receiver = func.value
        is_pool = False
        if isinstance(receiver, ast.Call):
            qual = module.resolve(receiver.func)
            is_pool = (
                qual is not None and qual.split(".")[-1] in _POOL_CONSTRUCTORS
            )
        elif isinstance(receiver, ast.Name):
            is_pool = receiver.id in pool_names or "pool" in receiver.id.lower()
        elif isinstance(receiver, ast.Attribute):
            is_pool = (
                receiver.attr in pool_names or "pool" in receiver.attr.lower()
            )
        if not is_pool or not call.args:
            return None
        return call.args[0]

    def _check_task(
        self, module: ModuleInfo, task: ast.AST, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        module_globals = _module_level_names(module)
        declared_global: set[str] = set()
        for node in ast.walk(task):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        lock_names = _collect_lock_names(module)
        yield from self._scan_body(
            getattr(task, "body", []), module, ctx,
            module_globals | declared_global, declared_global, lock_names,
            under_lock=False,
        )

    def _scan_body(
        self,
        body: list[ast.stmt],
        module: ModuleInfo,
        ctx: AnalysisContext,
        shared: set[str],
        rebindable: set[str],
        lock_names: _LockNames,
        *,
        under_lock: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                locked = under_lock or any(
                    _lock_identity(item.context_expr, module, lock_names, None)
                    for item in stmt.items
                )
                yield from self._scan_body(
                    stmt.body, module, ctx, shared, rebindable, lock_names,
                    under_lock=locked,
                )
                continue
            if not under_lock:
                mutated = _shared_mutation(stmt, shared, rebindable)
                if mutated is not None:
                    found = self.finding(
                        module, ctx, stmt,
                        f"task mutates shared state {mutated!r} without "
                        "holding a lock; WorkPool tasks must be pure "
                        "functions of their arguments",
                    )
                    if found is not None:
                        yield found
            for child_body in _stmt_bodies(stmt):
                yield from self._scan_body(
                    child_body, module, ctx, shared, rebindable, lock_names,
                    under_lock=under_lock,
                )


def _module_level_names(module: ModuleInfo) -> set[str]:
    """Top-level names bound to mutable-looking containers."""
    names: set[str] = set()
    for node in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _shared_mutation(
    stmt: ast.stmt, shared: set[str], rebindable: set[str]
) -> str | None:
    """Name of the shared object this statement mutates, if any.

    In-place mutations (method calls, subscript stores) count against any
    module-level name; *rebinding* a bare name only counts when it was
    declared ``global`` — otherwise the assignment creates a local.
    """
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                node.func.attr in _MUTATORS
                and isinstance(receiver, ast.Name)
                and receiver.id in shared
            ):
                return receiver.id
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = target.value
                    if isinstance(base, ast.Name) and base.id in shared:
                        return base.id
                elif isinstance(target, ast.Name) and target.id in rebindable:
                    return target.id
    return None
