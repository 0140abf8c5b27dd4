"""Configurable taint lattice with interprocedural propagation.

The lattice element for one value is a mapping ``kind -> witness``: which
taint kinds may flow into the value and a human-readable witness of the
original source (kept lexicographically minimal so fixpoints are
deterministic).  Propagation is context-insensitive over the call graph:

* a **source** call site generates its kind,
* a resolved callee contributes its *return taint* (computed from its
  own summary, to a fixpoint),
* an unresolved callee (builtins, f-string helpers, third-party code)
  conservatively **passes through** its argument taint,
* a **sanitizer** call strips the kinds it sanitizes,
* taint entering a call's arguments flows into the callee's parameters
  (method calls shift positions past ``self``/``cls``).

The same fixpoint machinery also computes the three non-taint closures
the ``dataflow.*`` detectors need: escaped-exception sets (with
per-handler absorption attribution), transitively acquired lock sets
and the lock-order graph they extend, and the handle-returning function
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.staticanalysis.checks.concurrency import LockGraph
from repro.staticanalysis.dataflow.callgraph import CallGraph
from repro.staticanalysis.dataflow.summaries import (
    USE_DISCARDED,
    USE_RETURNED,
    USE_USED,
    CallSite,
    FunctionSummary,
)
from repro.staticanalysis.model import relative_path

#: Source pattern suffix requiring the call to have no arguments (an
#: RNG constructor with no seed falls back to OS entropy).
_NOARGS = "!noargs"

#: Safety bound on fixpoint iterations (the lattice is finite and the
#: transfer functions monotone, so this should never be reached).
_MAX_ITERATIONS = 64


@dataclass(frozen=True)
class TaintRule:
    """One taint kind: where it is born, where it must not arrive."""

    kind: str
    #: fully qualified source call names; append ``!noargs`` to match
    #: only zero-argument calls (unseeded constructors).
    sources: tuple[str, ...]
    #: sink patterns.  ``name`` or ``Class.method`` match as trailing
    #: dotted segments; a leading ``.`` (e.g. ``.write_bytes``) matches
    #: any receiver's method of that name.
    sinks: tuple[str, ...]
    #: why arriving is a bug — interpolated into the finding message.
    sink_description: str
    sanitizers: tuple[str, ...] = ("len", "bool", "type", "isinstance")
    #: ``sources`` and ``sinks`` split once: both run for every call site.
    _exact_sources: frozenset[str] = field(init=False, repr=False, compare=False)
    _noargs_sources: frozenset[str] = field(init=False, repr=False, compare=False)
    _sink_names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_exact_sources", frozenset(
            pattern for pattern in self.sources if not pattern.endswith(_NOARGS)
        ))
        object.__setattr__(self, "_noargs_sources", frozenset(
            pattern[: -len(_NOARGS)]
            for pattern in self.sources
            if pattern.endswith(_NOARGS)
        ))
        # ``.name`` matches exactly what ``name`` does: ``name`` itself or
        # any receiver's ``.name``.
        object.__setattr__(self, "_sink_names", frozenset(
            pattern.removeprefix(".") for pattern in self.sinks
        ))

    def matches_source(self, site: CallSite) -> bool:
        if site.callee in self._exact_sources:
            return True
        return (
            site.callee in self._noargs_sources
            and not site.arg_feeds
            and not site.kw_feeds
            and not site.all_feeds()
        )

    def matches_sink(self, callee: str) -> bool:
        """True when ``callee`` or one of its trailing dotted runs is a sink."""
        suffix = callee
        while suffix not in self._sink_names:
            dot = suffix.find(".")
            if dot < 0:
                return False
            suffix = suffix[dot + 1:]
        return True

    def sanitizes(self, callee: str) -> bool:
        return callee in self.sanitizers


@dataclass(frozen=True)
class TaintSpec:
    """The full lattice configuration: one rule per taint kind."""

    rules: tuple[TaintRule, ...]

    def by_kind(self, kind: str) -> TaintRule:
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        raise KeyError(kind)


#: Journaled / fingerprinted / persisted experiment state: the places a
#: nondeterministic value must never arrive without being an explicit
#: input (Table I: non-deterministic bugs are the hardest to reproduce).
_STATE_SINKS = (
    "RunJournal.append",
    "journal.append",
    "ArtifactCache.put",
    "cache.put",
    "hashlib.sha256",
    "hashlib.sha1",
    "hashlib.md5",
    "hashlib.blake2b",
    "hashlib.new",
)

_ARTIFACT_SINKS = _STATE_SINKS + (
    "pickle.dump",
    "pickle.dumps",
    "json.dump",
    ".write_text",
    ".write_bytes",
    ".writelines",
    "numpy.save",
    "numpy.savez",
)

DEFAULT_TAINT_SPEC = TaintSpec(
    rules=(
        TaintRule(
            kind="wall_clock",
            sources=(
                "time.time",
                "time.time_ns",
                "time.monotonic",
                "time.monotonic_ns",
                "time.perf_counter",
                "time.perf_counter_ns",
                "datetime.datetime.now",
                "datetime.datetime.utcnow",
                "datetime.datetime.today",
                "datetime.date.today",
            ),
            sinks=_STATE_SINKS,
            sink_description=(
                "journaled/fingerprinted state (results now depend on run "
                "time; take the timestamp as an explicit input)"
            ),
        ),
        TaintRule(
            kind="unseeded_rng",
            sources=(
                "random.random",
                "random.randint",
                "random.randrange",
                "random.uniform",
                "random.choice",
                "random.choices",
                "random.shuffle",
                "random.sample",
                "random.getrandbits",
                "random.randbytes",
                "numpy.random.rand",
                "numpy.random.randn",
                "numpy.random.randint",
                "numpy.random.random",
                "numpy.random.choice",
                "numpy.random.normal",
                "numpy.random.uniform",
                "random.Random" + _NOARGS,
                "random.SystemRandom",
                "numpy.random.default_rng" + _NOARGS,
                "numpy.random.RandomState" + _NOARGS,
                "os.urandom",
                "uuid.uuid4",
                "secrets.token_hex",
                "secrets.token_bytes",
            ),
            sinks=_ARTIFACT_SINKS,
            sink_description=(
                "a persisted artifact (two runs of the same configuration "
                "now persist different bytes; derive a seeded stream)"
            ),
        ),
    )
)


#: One taint lattice element: kind -> lexicographically minimal witness.
Taint = dict[str, str]


def _merge(into: Taint, other: Taint) -> bool:
    """Merge ``other`` into ``into``; True when ``into`` changed."""
    changed = False
    for kind, witness in other.items():
        current = into.get(kind)
        if current is None or witness < current:
            into[kind] = witness
            changed = True
    return changed


@dataclass
class TaintAnalysis:
    """All interprocedural facts, computed to a fixpoint over the graph."""

    graph: CallGraph
    #: witness paths are reported relative to this root, so reports are
    #: byte-identical across checkouts of the same tree.
    root: Path
    #: function -> taint of its return value.
    ret_taint: dict[str, Taint] = field(default_factory=dict)
    #: function -> param index -> taint entering from any caller.
    param_taint: dict[str, dict[int, Taint]] = field(default_factory=dict)
    #: function -> exception names escaping it (raised, not locally caught).
    escapes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: (function, handler index) -> {exc name: witness} absorbed there.
    absorbed: dict[tuple[str, int], dict[str, str]] = field(
        default_factory=dict
    )
    #: function -> lock identities acquired by it or its callees.
    lock_closure: dict[str, set[str]] = field(default_factory=dict)
    #: lexical nesting plus a call made while holding a lock; each edge's
    #: site is (function, line, callee), the callee None for nesting.
    lock_edges: LockGraph = field(default_factory=LockGraph)
    #: functions whose return value is an open file handle.
    handle_returners: dict[str, str] = field(default_factory=dict)
    #: memo: converged per-function site taints (filled after run()).
    _final_sites: dict[str, dict[int, Taint]] = field(
        default_factory=dict, repr=False
    )
    _rel_cache: dict[str, str] = field(default_factory=dict, repr=False)

    def _rel(self, path: str) -> str:
        """:func:`relative_path`, memoised: every fixpoint pass asks again."""
        rel = self._rel_cache.get(path)
        if rel is None:
            rel = self._rel_cache[path] = relative_path(path, self.root)
        return rel

    def run(self) -> "TaintAnalysis":
        order = self.graph.sorted_functions()
        for qualname in order:
            self.ret_taint[qualname] = {}
            self.param_taint[qualname] = {}
            self.escapes[qualname] = {}
            self.lock_closure[qualname] = set()
        self._fix_taint(order)
        self._fix_escapes(order)
        self._fix_locks(order)
        self._fix_handles(order)
        return self

    # -- taint fixpoint --------------------------------------------------------
    def _fix_taint(self, order: list[str]) -> None:
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname in order:
                module, function = self.graph.functions[qualname]
                site_taints = self._site_taints(qualname, module, function)
                # Return taint from the function's own return feeds.
                ret: Taint = {}
                for token in function.ret_feeds:
                    _merge(ret, self._token_taint(
                        qualname, token, site_taints
                    ))
                changed |= _merge(self.ret_taint[qualname], ret)
                # Taint flowing into callee parameters.
                for site, target in self.graph.callsite_targets(qualname):
                    if target is None:
                        continue
                    _, callee = self.graph.functions[target]
                    offset = (
                        1
                        if callee.params[:1] in (("self",), ("cls",))
                        else 0
                    )
                    params = self.param_taint[target]
                    for pos, feeds in enumerate(site.arg_feeds):
                        taint: Taint = {}
                        for token in feeds:
                            _merge(taint, self._token_taint(
                                qualname, token, site_taints
                            ))
                        if taint:
                            slot = params.setdefault(pos + offset, {})
                            changed |= _merge(slot, taint)
                    for name, feeds in site.kw_feeds:
                        if name not in callee.params:
                            continue
                        taint = {}
                        for token in feeds:
                            _merge(taint, self._token_taint(
                                qualname, token, site_taints
                            ))
                        if taint:
                            index = callee.params.index(name)
                            slot = params.setdefault(index, {})
                            changed |= _merge(slot, taint)
                    if offset and site.recv_feeds:
                        # ``obj.method()``: receiver taint enters self/cls.
                        taint = {}
                        for token in site.recv_feeds:
                            _merge(taint, self._token_taint(
                                qualname, token, site_taints
                            ))
                        if taint:
                            slot = params.setdefault(0, {})
                            changed |= _merge(slot, taint)
            if not changed:
                return

    def _site_taints(
        self, qualname: str, module, function: FunctionSummary
    ) -> dict[int, Taint]:
        """Result taint of every call site in ``function`` (memoized)."""
        taints: dict[int, Taint] = {}
        relpath = self._rel(module.path)
        # graph.edges is aligned with function.callsites by construction.
        edges = self.graph.callsite_targets(qualname)
        for index in range(len(function.callsites)):
            self._site_taint(
                index, frozenset(), qualname, function, edges, relpath, taints
            )
        return taints

    def _site_taint(
        self,
        index: int,
        trail: frozenset[int],
        qualname: str,
        function: FunctionSummary,
        edges: list[tuple[CallSite, str | None]],
        relpath: str,
        taints: dict[int, Taint],
    ) -> Taint:
        """Result taint of call site ``index``, memoised in ``taints`` (a
        method, not a closure over itself, so nothing it sees outlives
        the call without the cyclic collector)."""
        if index in taints:
            return taints[index]
        if index in trail:
            return {}
        site = function.callsites[index]
        out: Taint = {}
        for rule in DEFAULT_TAINT_SPEC.rules:
            if rule.matches_source(site):
                out[rule.kind] = (
                    f"{site.callee}() at {relpath}:{site.line}"
                )
        target = edges[index][1] if index < len(edges) else None
        if target is not None:
            _merge(out, self.ret_taint.get(target, {}))
        if target is None or site.is_constructor:
            # Unknown callee / constructor: argument pass-through.
            for token in site.all_feeds():
                if token.startswith("call:"):
                    _merge(out, self._site_taint(
                        int(token.split(":")[1]), trail | {index},
                        qualname, function, edges, relpath, taints,
                    ))
                elif token.startswith("param:"):
                    _merge(out, self.param_taint[qualname].get(
                        int(token.split(":")[1]), {}
                    ))
        for rule in DEFAULT_TAINT_SPEC.rules:
            if rule.sanitizes(site.callee):
                out.pop(rule.kind, None)
        taints[index] = out
        return out

    def _token_taint(
        self, qualname: str, token: str, site_taints: dict[int, Taint]
    ) -> Taint:
        if token.startswith("param:"):
            return self.param_taint[qualname].get(
                int(token.split(":")[1]), {}
            )
        if token.startswith("call:"):
            return site_taints.get(int(token.split(":")[1]), {})
        return {}

    def site_taints_for(self, qualname: str) -> dict[int, Taint]:
        """Converged per-site result taints (memoized post-run)."""
        cached = self._final_sites.get(qualname)
        if cached is None:
            module, function = self.graph.functions[qualname]
            cached = self._site_taints(qualname, module, function)
            self._final_sites[qualname] = cached
        return cached

    def site_argument_taint(
        self, qualname: str, site: CallSite
    ) -> Taint:
        """Final taint arriving at any argument of ``site`` (post-run)."""
        site_taints = self.site_taints_for(qualname)
        out: Taint = {}
        for token in site.all_feeds():
            _merge(out, self._token_taint(qualname, token, site_taints))
        return out

    def sink_sites(self, kind: str):
        """Yield ``(function, site)`` pairs whose callee matches the
        kind's sink patterns (callee-name matches are memoized — the
        same dotted name repeats across the whole project)."""
        rule = DEFAULT_TAINT_SPEC.by_kind(kind)
        memo: dict[str, bool] = {}
        for qualname in self.graph.sorted_functions():
            for site, _ in self.graph.callsite_targets(qualname):
                hit = memo.get(site.callee)
                if hit is None:
                    hit = rule.matches_sink(site.callee)
                    memo[site.callee] = hit
                if hit:
                    yield qualname, site

    # -- escaped exceptions ----------------------------------------------------
    def _fix_escapes(self, order: list[str]) -> None:
        for qualname in order:
            _, function = self.graph.functions[qualname]
            for info in function.raises:
                if not info.exc:
                    continue
                if not self.graph.catches_any(info.caught, info.exc):
                    module, _ = self.graph.functions[qualname]
                    self.escapes[qualname].setdefault(
                        info.exc, f"raised at {self._rel(module.path)}:{info.line}"
                    )
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname in order:
                _, function = self.graph.functions[qualname]
                for site, target in self.graph.callsite_targets(qualname):
                    if target is None:
                        continue
                    for exc, witness in sorted(
                        self.escapes.get(target, {}).items()
                    ):
                        handler = self._absorbing_handler(
                            function, site, exc
                        )
                        if handler is None:
                            if exc not in self.escapes[qualname]:
                                self.escapes[qualname][exc] = (
                                    f"{witness} via {target}()"
                                )
                                changed = True
                        elif handler.reraises:
                            if exc not in self.escapes[qualname]:
                                self.escapes[qualname][exc] = (
                                    f"{witness} via {target}() (re-raised)"
                                )
                                changed = True
                        else:
                            slot = self.absorbed.setdefault(
                                (qualname, handler.index), {}
                            )
                            if exc not in slot:
                                slot[exc] = f"{witness} via {target}()"
                                changed = True
            if not changed:
                return

    def _absorbing_handler(
        self, function: FunctionSummary, site: CallSite, exc: str
    ):
        """Innermost enclosing handler of ``site`` that catches ``exc``."""
        for handler_index in site.handler_scope[::-1]:
            handler = function.handlers[handler_index]
            types = handler.types or ("",)
            if any(
                self.graph.exception_matches(caught, exc)
                for caught in types
            ):
                return handler
        return None

    # -- lock closure + interprocedural lock order -----------------------------
    def _fix_locks(self, order: list[str]) -> None:
        locks = self.lock_edges
        for qualname in order:
            _, function = self.graph.functions[qualname]
            self.lock_closure[qualname].update(function.lock_acquires)
            for outer, inner in function.lock_edges:
                locks.add(outer, inner, (qualname, function.line, None))
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname in order:
                closure = self.lock_closure[qualname]
                for site, target in self.graph.callsite_targets(qualname):
                    if target is None:
                        continue
                    for identity in sorted(self.lock_closure.get(target, ())):
                        if identity not in closure:
                            closure.add(identity)
                            changed = True
                        for held in site.held_locks:
                            if held != identity:
                                changed |= locks.add(
                                    held, identity, (qualname, site.line, target)
                                )
            if not changed:
                return

    # -- handle returners ------------------------------------------------------
    def _fix_handles(self, order: list[str]) -> None:
        for qualname in order:
            module, function = self.graph.functions[qualname]
            if function.returns_open_handle:
                opens = [
                    o for o in function.opens
                    if o.result_use == USE_RETURNED
                ]
                line = opens[0].line if opens else function.line
                self.handle_returners[qualname] = (
                    f"open() at {self._rel(module.path)}:{line}"
                )
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname in order:
                if qualname in self.handle_returners:
                    continue
                _, function = self.graph.functions[qualname]
                ret_calls = {
                    int(token.split(":")[1])
                    for token in function.ret_feeds
                    if token.startswith("call:")
                }
                for site, target in self.graph.callsite_targets(qualname):
                    if (
                        site.index in ret_calls
                        and target in self.handle_returners
                        and site.result_use == USE_RETURNED
                    ):
                        self.handle_returners[qualname] = (
                            f"{self.handle_returners[target]} "
                            f"via {target}()"
                        )
                        changed = True
                        break
            if not changed:
                return

    # -- queries used by detectors ---------------------------------------------
    def leaked_handle_sites(
        self,
    ) -> list[tuple[str, CallSite, str, str]]:
        """(caller, site, callee, witness) where a returned handle leaks."""
        out: list[tuple[str, CallSite, str, str]] = []
        for qualname in self.graph.sorted_functions():
            for site, target in self.graph.callsite_targets(qualname):
                if target is None or target not in self.handle_returners:
                    continue
                if target == qualname:
                    continue
                if site.result_use in (USE_USED, USE_DISCARDED):
                    out.append((
                        qualname, site, target,
                        self.handle_returners[target],
                    ))
        return out
