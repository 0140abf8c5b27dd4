"""Per-function dataflow summaries: the unit of caching and parallelism.

A :class:`ModuleSummary` is a pure function of one module's source bytes:
it records, for every function (plus a ``<module>`` pseudo-function for
top-level statements), the facts the interprocedural passes need —

* **call sites** with per-argument *feed sets* (which parameters and
  which other call results flow into each argument),
* **return feeds** (what flows into the function's return values),
* **raised and caught exception types**, per raise site and handler,
* **acquired locks** (identities, lexical lock-order edges, and what was
  lexically held at each call),
* **opened resource handles** and what happens to them (managed,
  closed, returned, stored, leaked).

Feeds are symbolic tokens, not values: ``param:2`` (the third parameter)
and ``call:5`` (the result of this function's sixth call site).  The
link phase (:mod:`repro.staticanalysis.dataflow.taint`) gives tokens
meaning by resolving call sites through the project call graph, so a
summary never needs to see any module but its own — which is exactly
what makes it content-digest cacheable and safely computable in a
process pool.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.staticanalysis.checks.base import has_bare_raise
from repro.staticanalysis.checks.concurrency import (
    _collect_lock_names,
    _lock_identity,
)
from repro.staticanalysis.loader import ModuleInfo, load_module

#: Bump when the summary shape or extraction logic changes: the version
#: is part of every cache key, so stale summaries can never be reused.
SUMMARY_VERSION = 2

#: ``result_use`` values, roughly ordered by how safe they are for a
#: resource handle: a managed/closed/returned handle has an owner, a
#: stored one moved ownership to an object, used/discarded ones leak.
USE_MANAGED = "managed"
USE_CLOSED = "closed"
USE_RETURNED = "returned"
USE_STORED = "stored"
USE_FED = "fed"  # nested inside another call's arguments
USE_USED = "used"
USE_DISCARDED = "discarded"

_MODULE_FUNC = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    index: int
    callee: str  # best-effort resolved dotted name (see _CalleeResolver)
    line: int
    col: int
    #: per positional argument: feed tokens ("param:i" / "call:j").
    arg_feeds: tuple[tuple[str, ...], ...] = ()
    #: (keyword name, feed tokens) pairs, in source order.
    kw_feeds: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: feed tokens of a method call's receiver expression —
    #: ``tainted.encode()`` carries its taint through the receiver, not
    #: an argument.
    recv_feeds: tuple[str, ...] = ()
    #: exception type names caught by handlers lexically enclosing this
    #: call within the function (what a callee's escape must pass).
    caught: tuple[str, ...] = ()
    #: indices (into FunctionSummary.handlers) of enclosing handlers,
    #: innermost first.
    handler_scope: tuple[int, ...] = ()
    #: lock identities lexically held at this call site.
    held_locks: tuple[str, ...] = ()
    #: what the caller does with the result (USE_* constants).
    result_use: str = USE_DISCARDED
    #: True when this call is a constructor of a resolved class (the
    #: callee is the class name, not a function).
    is_constructor: bool = False

    def all_feeds(self) -> tuple[str, ...]:
        tokens: list[str] = []
        for feeds in self.arg_feeds:
            tokens.extend(feeds)
        for _, feeds in self.kw_feeds:
            tokens.extend(feeds)
        tokens.extend(self.recv_feeds)
        return tuple(tokens)


@dataclass(frozen=True)
class HandlerInfo:
    """One ``except`` clause: what it catches and whether it pays for it."""

    index: int
    types: tuple[str, ...]  # resolved type names; empty = bare except
    line: int
    reraises: bool
    #: the handler body calls ``<ledger-ish>.record(...)``/``.price(...)``
    #: (or raises), i.e. the absorbed failure is accounted somewhere.
    prices: bool


@dataclass(frozen=True)
class RaiseInfo:
    """One ``raise`` statement and what encloses it locally."""

    exc: str  # resolved type name; "" for a bare re-raise
    line: int
    caught: tuple[str, ...]  # types caught by enclosing local handlers


@dataclass(frozen=True)
class OpenInfo:
    """One ``open()``-family call and the fate of its handle."""

    line: int
    col: int
    result_use: str


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the link phase needs to know about one function."""

    qualname: str  # "pkg.mod.func" or "pkg.mod.Class.method"
    line: int
    params: tuple[str, ...]
    callsites: tuple[CallSite, ...] = ()
    ret_feeds: tuple[str, ...] = ()
    raises: tuple[RaiseInfo, ...] = ()
    handlers: tuple[HandlerInfo, ...] = ()
    #: lock-order edges from lexical nesting inside this function.
    lock_edges: tuple[tuple[str, str], ...] = ()
    #: every lock identity this function acquires, in first-acquired order.
    lock_acquires: tuple[str, ...] = ()
    opens: tuple[OpenInfo, ...] = ()

    @property
    def returns_open_handle(self) -> bool:
        """Does a locally opened handle flow to a return value?"""
        return any(info.result_use == USE_RETURNED for info in self.opens)


@dataclass(frozen=True)
class ModuleSummary:
    """All function summaries for one module, plus resolution tables."""

    path: str  # absolute posix path
    name: str  # dotted module name
    digest: str  # sha256 of the source bytes
    functions: tuple[FunctionSummary, ...] = ()
    #: class qualname -> resolved base names (for exception hierarchies).
    classes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: local alias -> fully qualified import target (for re-export
    #: chasing: a package ``__init__`` maps exported names to their
    #: defining modules).
    imports: tuple[tuple[str, str], ...] = ()


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def summarize_module(path: str | Path) -> ModuleSummary:
    """Load and summarize one module from disk."""
    module = load_module(Path(path))
    return _summarize(module)


def summarize_source(module: ModuleInfo) -> ModuleSummary:
    """Summarize an already-loaded module."""
    return _summarize(module)


# -- extraction ----------------------------------------------------------------


class _CalleeResolver:
    """Best-effort dotted-name resolution for call targets.

    Layered: import-table resolution (PR-5 loader) for plain and dotted
    names, local-def qualification for bare names defined in this module,
    ``self.m()``/``cls.m()`` -> the enclosing class's method, and
    constructor-tracked locals (``x = ClassName(); x.m()``) -> the class's
    method.  Anything else keeps its raw dotted spelling so sink patterns
    can still match on attribute names.
    """

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.local_defs: set[str] = set()
        self.local_classes: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_classes.add(node.name)

    def resolve_class_name(self, node: ast.AST) -> str | None:
        """Fully qualified class name for a constructor reference."""
        if isinstance(node, ast.Name) and node.id in self.local_classes:
            return f"{self.module.name}.{node.id}"
        resolved = self.module.resolve(node)
        if resolved is None:
            return None
        head = resolved.split(".")[0]
        if head in self.module.imports or "." in resolved:
            # Heuristic: imported CapWord targets are classes.
            last = resolved.split(".")[-1]
            if last[:1].isupper():
                return resolved
        return None

    def resolve_call(
        self,
        func: ast.AST,
        class_name: str | None,
        var_types: dict[str, str],
    ) -> tuple[str, bool]:
        """(callee name, is_constructor) for a call's function expression."""
        if isinstance(func, ast.Name):
            if func.id in self.local_defs:
                return f"{self.module.name}.{func.id}", False
            if func.id in self.local_classes:
                return f"{self.module.name}.{func.id}", True
            resolved = self.module.resolve(func) or func.id
            is_ctor = (
                func.id in self.module.imports
                and resolved.split(".")[-1][:1].isupper()
            )
            return resolved, is_ctor
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and class_name is not None:
                    return (
                        f"{self.module.name}.{class_name}.{func.attr}",
                        False,
                    )
                typed = var_types.get(base.id)
                if typed is not None:
                    return f"{typed}.{func.attr}", False
            resolved = self.module.resolve(func)
            if resolved is not None:
                return resolved, False
            return f"<expr>.{func.attr}", False
        return "<dynamic>", False


def _summarize(module: ModuleInfo) -> ModuleSummary:
    resolver = _CalleeResolver(module)
    lock_names = _collect_lock_names(module)
    functions: list[FunctionSummary] = []

    # Top-level statements form a pseudo-function so module-level calls
    # (CLI glue, module initialization) participate in the call graph.
    top_level = [
        stmt
        for stmt in module.tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    functions.append(
        _summarize_function(
            qualname=f"{module.name}.{_MODULE_FUNC}",
            line=1,
            params=(),
            body=top_level,
            module=module,
            resolver=resolver,
            lock_names=lock_names,
            class_name=None,
        )
    )

    classes: list[tuple[str, tuple[str, ...]]] = []
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _summarize_def(node, module, resolver, lock_names, None)
            )
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                resolved
                for base in node.bases
                if (resolved := module.resolve(base)) is not None
            )
            classes.append((f"{module.name}.{node.name}", bases))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        _summarize_def(
                            item, module, resolver, lock_names, node.name
                        )
                    )
    return ModuleSummary(
        path=Path(module.path).resolve().as_posix(),
        name=module.name,
        digest=source_digest(module.source),
        functions=tuple(functions),
        classes=tuple(classes),
        imports=tuple(sorted(module.imports.items())),
    )


def _summarize_def(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    resolver: _CalleeResolver,
    lock_names,
    class_name: str | None,
) -> FunctionSummary:
    params = [arg.arg for arg in node.args.posonlyargs]
    params += [arg.arg for arg in node.args.args]
    if node.args.vararg is not None:
        params.append(node.args.vararg.arg)
    params += [arg.arg for arg in node.args.kwonlyargs]
    if node.args.kwarg is not None:
        params.append(node.args.kwarg.arg)
    qual = (
        f"{module.name}.{class_name}.{node.name}"
        if class_name
        else f"{module.name}.{node.name}"
    )
    return _summarize_function(
        qualname=qual,
        line=node.lineno,
        params=tuple(params),
        body=node.body,
        module=module,
        resolver=resolver,
        lock_names=lock_names,
        class_name=class_name,
    )


@dataclass
class _Scope:
    """Mutable state while walking one function body."""

    caught: list[str] = field(default_factory=list)
    handler_scope: list[int] = field(default_factory=list)
    held_locks: list[str] = field(default_factory=list)


def _summarize_function(
    *,
    qualname: str,
    line: int,
    params: tuple[str, ...],
    body: list[ast.stmt],
    module: ModuleInfo,
    resolver: _CalleeResolver,
    lock_names,
    class_name: str | None,
) -> FunctionSummary:
    walker = _FunctionWalker(
        params, module, resolver, lock_names, class_name
    )
    walker.walk(body, _Scope())
    walker.finish()
    return FunctionSummary(
        qualname=qualname,
        line=line,
        params=params,
        callsites=tuple(walker.callsites),
        ret_feeds=tuple(walker.ret_feeds),
        raises=tuple(walker.raises),
        handlers=tuple(walker.handlers),
        lock_edges=tuple(dict.fromkeys(walker.lock_edges)),
        lock_acquires=tuple(dict.fromkeys(walker.lock_acquires)),
        opens=tuple(walker.opens),
    )


_OPEN_NAMES = {"open", "io.open"}

_LEDGERISH = ("ledger", "account")


class _FunctionWalker:
    """Single pass over one function body, collecting summary facts.

    Variable flow is flow-insensitive: every assignment contributes its
    right-hand feed tokens to the target name, and var->var references
    are closed transitively in :meth:`finish`.  That over-approximates
    (a name reused for unrelated values merges their feeds) but never
    misses a flow, which is the right bias for bug detectors whose
    verdicts are then human-reviewed.
    """

    def __init__(
        self,
        params: tuple[str, ...],
        module: ModuleInfo,
        resolver: _CalleeResolver,
        lock_names,
        class_name: str | None,
    ) -> None:
        self.module = module
        self.resolver = resolver
        self.lock_names = lock_names
        self.class_name = class_name
        self.param_tokens = {p: f"param:{i}" for i, p in enumerate(params)}
        #: var name -> set of direct feed tokens + "var:<name>" references.
        self.var_feeds: dict[str, set[str]] = {}
        self.var_types: dict[str, str] = {}
        self.callsites: list[CallSite] = []
        self._pending_use: dict[int, str] = {}  # callsite index -> use
        self._call_vars: dict[str, list[int]] = {}  # var -> callsite idxs
        self.ret_feeds: list[str] = []
        self.raises: list[RaiseInfo] = []
        self.handlers: list[HandlerInfo] = []
        self.lock_edges: list[tuple[str, str]] = []
        self.lock_acquires: list[str] = []
        self.opens: list[OpenInfo] = []
        self._open_sites: dict[int, ast.Call] = {}  # callsite idx -> node
        self._closed_vars: set[str] = set()
        self._managed_vars: set[str] = set()
        self._returned_vars: set[str] = set()
        self._stored_vars: set[str] = set()

    # -- expression feeds ------------------------------------------------------
    def _roots(self, expr: ast.AST | None, scope: _Scope) -> list[str]:
        """Feed tokens for an expression, registering nested call sites."""
        if expr is None:
            return []
        tokens: list[str] = []
        for node in self._walk_expr(expr):
            if isinstance(node, ast.Name):
                token = self.param_tokens.get(node.id)
                if token is not None:
                    tokens.append(token)
                elif node.id in self.var_feeds or node.id in self._call_vars:
                    tokens.append(f"var:{node.id}")
            elif isinstance(node, ast.Call):
                index = self._record_call(node, scope, result_use=USE_FED)
                tokens.append(f"call:{index}")
        return list(dict.fromkeys(tokens))

    def _walk_expr(self, expr: ast.AST):
        """Walk an expression, not descending into nested Call nodes
        (each Call is summarized once by :meth:`_record_call`, which
        walks its own arguments)."""
        stack = [expr]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.Call):
                continue  # its args are the call site's business
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- call sites ------------------------------------------------------------
    def _record_call(
        self, call: ast.Call, scope: _Scope, *, result_use: str
    ) -> int:
        index = len(self.callsites)
        # Reserve the slot first: argument expressions may contain
        # further calls, and indices must be assignment-stable.
        self.callsites.append(None)  # type: ignore[arg-type]
        callee, is_ctor = self.resolver.resolve_call(
            call.func, self.class_name, self.var_types
        )
        arg_feeds = tuple(
            tuple(self._roots(arg, scope)) for arg in call.args
        )
        kw_feeds = tuple(
            (kw.arg or "**", tuple(self._roots(kw.value, scope)))
            for kw in call.keywords
        )
        recv_feeds: tuple[str, ...] = ()
        if isinstance(call.func, ast.Attribute):
            recv_feeds = tuple(self._roots(call.func.value, scope))
        self.callsites[index] = CallSite(
            index=index,
            callee=callee,
            line=call.lineno,
            col=call.col_offset,
            arg_feeds=arg_feeds,
            kw_feeds=kw_feeds,
            recv_feeds=recv_feeds,
            caught=tuple(dict.fromkeys(scope.caught)),
            handler_scope=tuple(scope.handler_scope),
            held_locks=tuple(dict.fromkeys(scope.held_locks)),
            result_use=result_use,
            is_constructor=is_ctor,
        )
        qualified = self.module.resolve(call.func)
        if qualified in _OPEN_NAMES:
            self._open_sites[index] = call
        return index

    def _retarget_use(self, tokens: list[str], use: str) -> None:
        """Upgrade ``result_use`` for call sites referenced by tokens."""
        for token in tokens:
            if token.startswith("call:"):
                self._pending_use[int(token.split(":")[1])] = use

    # -- statement walk --------------------------------------------------------
    def walk(self, body: list[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            self._walk_stmt(stmt, scope)

    def _walk_stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are summarized separately (or not at all)
        if isinstance(stmt, ast.Return):
            tokens = self._roots(stmt.value, scope)
            self.ret_feeds.extend(tokens)
            self._retarget_use(tokens, USE_RETURNED)
            for token in tokens:
                if token.startswith("var:"):
                    self._returned_vars.add(token[4:])
            return
        if isinstance(stmt, ast.Raise):
            self._record_raise(stmt, scope)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._record_assign(stmt, scope)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt, scope)
            return
        if isinstance(stmt, ast.Try):
            self._walk_try(stmt, scope)
            return
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Call):
                index = self._record_call(
                    value, scope, result_use=USE_DISCARDED
                )
                self._note_close(value)
                del index
            else:
                self._roots(value, scope)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            tokens = self._roots(stmt.iter, scope)
            target_names = [
                n.id
                for n in ast.walk(stmt.target)
                if isinstance(n, ast.Name)
            ]
            for name in target_names:
                self.var_feeds.setdefault(name, set()).update(tokens)
            self.walk(stmt.body, scope)
            self.walk(stmt.orelse, scope)
            return
        # Generic statements (If, While, Assert, Delete, ...): collect
        # expression feeds for side-effect call sites, then recurse into
        # every statement body.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._roots(child, scope)
        for attr in ("body", "orelse", "finalbody"):
            child_body = getattr(stmt, attr, None)
            if (
                isinstance(child_body, list)
                and child_body
                and isinstance(child_body[0], ast.stmt)
            ):
                self.walk(child_body, scope)

    def _record_assign(self, stmt: ast.stmt, scope: _Scope) -> None:
        value = getattr(stmt, "value", None)
        tokens = self._roots(value, scope) if value is not None else []
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                self.var_feeds.setdefault(target.id, set()).update(tokens)
                for token in tokens:
                    if token.startswith("call:"):
                        self._call_vars.setdefault(target.id, []).append(
                            int(token.split(":")[1])
                        )
                        self._pending_use.setdefault(
                            int(token.split(":")[1]), USE_USED
                        )
                # Constructor type tracking: x = ClassName(...).
                if (
                    isinstance(value, ast.Call)
                    and len(tokens) >= 1
                ):
                    ctor = self.resolver.resolve_class_name(value.func)
                    if ctor is not None:
                        self.var_types.setdefault(target.id, ctor)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                # Ownership moves to an object / container.
                self._retarget_use(tokens, USE_STORED)
                for token in tokens:
                    if token.startswith("var:"):
                        self._stored_vars.add(token[4:])
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            self.var_feeds.setdefault(stmt.target.id, set()).update(tokens)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith, scope: _Scope) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            expr = item.context_expr
            identity = _lock_identity(
                expr, self.module, self.lock_names, self.class_name
            )
            if identity is not None:
                for outer in scope.held_locks + acquired:
                    if outer != identity:
                        self.lock_edges.append((outer, identity))
                self.lock_acquires.append(identity)
                acquired.append(identity)
                continue
            if isinstance(expr, ast.Call):
                index = self._record_call(expr, scope, result_use=USE_MANAGED)
                tokens = [f"call:{index}"]
            else:
                tokens = self._roots(expr, scope)
                self._retarget_use(tokens, USE_MANAGED)
                for token in tokens:
                    if token.startswith("var:"):
                        self._managed_vars.add(token[4:])
            if item.optional_vars is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                self.var_feeds.setdefault(
                    item.optional_vars.id, set()
                ).update(tokens)
        scope.held_locks.extend(acquired)
        self.walk(stmt.body, scope)
        for _ in acquired:
            scope.held_locks.pop()

    def _walk_try(self, stmt: ast.Try, scope: _Scope) -> None:
        caught_here: list[str] = []
        handler_indices: list[int] = []
        for handler in stmt.handlers:
            types = _handler_types(handler, self.module)
            caught_here.extend(types if types else ("BaseException",))
            info = HandlerInfo(
                index=len(self.handlers),
                types=types,
                line=handler.lineno,
                reraises=has_bare_raise(handler.body),
                prices=_handler_prices(handler, self.module),
            )
            handler_indices.append(info.index)
            self.handlers.append(info)
        scope.caught.extend(caught_here)
        scope.handler_scope.extend(handler_indices)
        self.walk(stmt.body, scope)
        for _ in caught_here:
            scope.caught.pop()
        for _ in handler_indices:
            scope.handler_scope.pop()
        for handler in stmt.handlers:
            self.walk(handler.body, scope)
        self.walk(stmt.orelse, scope)
        self.walk(stmt.finalbody, scope)

    def _record_raise(self, stmt: ast.Raise, scope: _Scope) -> None:
        exc = stmt.exc
        name = ""
        if exc is not None:
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = self.module.resolve(target) or ""
            if isinstance(exc, ast.Call):
                self._record_call(exc, scope, result_use=USE_FED)
        self.raises.append(
            RaiseInfo(
                exc=name,
                line=stmt.lineno,
                caught=tuple(dict.fromkeys(scope.caught)),
            )
        )

    def _note_close(self, call: ast.Call) -> None:
        """``v.close()`` marks ``v``'s handle as closed in this scope."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "close"
            and isinstance(func.value, ast.Name)
        ):
            self._closed_vars.add(func.value.id)

    # -- finalization ----------------------------------------------------------
    def _expand(
        self, name: str, trail: frozenset[str], resolved: dict[str, set[str]]
    ) -> set[str]:
        """The feed tokens of ``name`` with its var references closed,
        memoised in ``resolved`` (a method, not a closure over itself, so
        the walker is freed by reference counting)."""
        if name in resolved:
            return resolved[name]
        if name in trail:
            return set()
        out: set[str] = set()
        for token in self.var_feeds.get(name, ()):
            if token.startswith("var:"):
                out |= self._expand(token[4:], trail | {name}, resolved)
            else:
                out.add(token)
        resolved[name] = out
        return out

    def finish(self) -> None:
        """Close var->var references and finalize call-site result uses."""
        # Transitive closure of variable feeds (small graphs; iterate).
        resolved: dict[str, set[str]] = {}
        for name in list(self.var_feeds):
            self._expand(name, frozenset(), resolved)

        def flatten(tokens: list[str]) -> tuple[str, ...]:
            out: list[str] = []
            for token in tokens:
                if token.startswith("var:"):
                    out.extend(sorted(resolved.get(token[4:], ())))
                else:
                    out.append(token)
            return tuple(dict.fromkeys(out))

        self.ret_feeds = list(flatten(self.ret_feeds))
        # Var fates upgrade the result_use of the call sites they hold.
        for var, indices in self._call_vars.items():
            if var in self._closed_vars:
                use = USE_CLOSED
            elif var in self._managed_vars:
                use = USE_MANAGED
            elif var in self._returned_vars:
                use = USE_RETURNED
            elif var in self._stored_vars:
                use = USE_STORED
            else:
                use = USE_USED
            for idx in indices:
                current = self._pending_use.get(idx)
                if current in (None, USE_USED, USE_FED):
                    self._pending_use[idx] = use
        finalized: list[CallSite] = []
        for site in self.callsites:
            use = self._pending_use.get(site.index, site.result_use)
            site = CallSite(
                index=site.index,
                callee=site.callee,
                line=site.line,
                col=site.col,
                arg_feeds=tuple(flatten(list(f)) for f in site.arg_feeds),
                kw_feeds=tuple(
                    (k, flatten(list(f))) for k, f in site.kw_feeds
                ),
                recv_feeds=flatten(list(site.recv_feeds)),
                caught=site.caught,
                handler_scope=site.handler_scope,
                held_locks=site.held_locks,
                result_use=use,
                is_constructor=site.is_constructor,
            )
            finalized.append(site)
        self.callsites = finalized
        for index, call in self._open_sites.items():
            self.opens.append(
                OpenInfo(
                    line=call.lineno,
                    col=call.col_offset,
                    result_use=self.callsites[index].result_use,
                )
            )


def _handler_types(
    handler: ast.ExceptHandler, module: ModuleInfo
) -> tuple[str, ...]:
    if handler.type is None:
        return ()
    exprs: list[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        exprs = list(handler.type.elts)
    else:
        exprs = [handler.type]
    return tuple(
        resolved
        for expr in exprs
        if (resolved := module.resolve(expr)) is not None
    )


def _handler_prices(handler: ast.ExceptHandler, module: ModuleInfo) -> bool:
    """Does the handler record the absorbed failure somewhere durable?

    A handler *prices* a failure when it calls ``record``/``price`` on a
    ledger-ish receiver (name contains "ledger"/"account"), or calls a
    logging method — the minimum bar for the paper's "no-alert" symptom
    class not to apply.
    """
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            attr = node.func.attr
            receiver = node.func.value
            receiver_name = ""
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            lowered = receiver_name.lower()
            if attr in ("record", "price") and any(
                tag in lowered for tag in _LEDGERISH
            ):
                return True
            if attr in (
                "warning", "error", "exception", "critical", "log",
            ) and ("log" in lowered or receiver_name == "logger"):
                return True
    return False
