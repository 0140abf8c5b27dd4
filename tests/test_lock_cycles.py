"""Both lock-cycle detectors against the reporters they had before the
shared lock graph.

``lock-order-cycle`` and ``dataflow.cross-function-lock-cycle`` now read
one :class:`~repro.staticanalysis.checks.concurrency.LockGraph` each.  The
oracles below are the reporters they replaced: the classic detector's own
edge dict, cycle-edge selection and ``_path_within`` (its walk is
unchanged and shared); the dataflow detector's self-loop test and
cycle-edge selection, over edges built as ``TaintAnalysis._fix_locks``
built them.  Every report must come out byte-identical with the oracle in
place of the detector, on the lint fixtures, on ``src/repro`` and on
generated programs whose cycles are two- and three-lock, lexical-only and
mixed lexical-and-call.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import repro
from repro.staticanalysis import default_detectors, run_interprocedural, run_lint, to_json
from repro.staticanalysis import engine as analyzer_engine
from repro.staticanalysis.checks.base import AnalysisContext
from repro.staticanalysis.checks.concurrency import (
    LockOrderCycleDetector,
    strongly_connected,
)
from repro.staticanalysis.dataflow.callgraph import CallGraph
from repro.staticanalysis.dataflow.detectors import (
    CrossFunctionLockCycleDetector,
    DataflowContext,
)

PACKAGE = Path(repro.__file__).parent
REPO = PACKAGE.parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: Generated programs; together they hold every kind of cycle (asserted).
SEEDS = range(40)

_LEXICAL = "lexical nesting"


# -- the classic reporter before the lock graph --------------------------------


def _path_within(
    graph: dict[str, set[str]], members: set[str], start: str, goal: str
) -> list[str]:
    parent = {start: start}
    frontier = [start]
    while goal not in parent:
        following = []
        for node in frontier:
            for nxt in sorted((graph[node] & members) - parent.keys()):
                parent[nxt] = node
                following.append(nxt)
        frontier = following
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


class _FirstSites(dict):
    """Edge -> the site that first recorded it, filled by the detector's
    walk through the ``add`` it calls on a lock graph."""

    def add(self, outer: str, inner: str, site) -> None:
        self.setdefault((outer, inner), site)


class _LexicalCycleOracle(LockOrderCycleDetector):
    """``lock-order-cycle`` reporting from its own edge dict."""

    def __init__(self) -> None:
        self._edges = self._locks = _FirstSites()

    def finalize(self, ctx: AnalysisContext):
        graph: dict[str, set[str]] = {}
        for outer, inner in self._edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
        for component in strongly_connected(graph):
            members = set(component)
            cycle_edges = sorted(
                edge for edge in self._edges
                if edge[0] in members and edge[1] in members
            )
            if not cycle_edges:
                continue
            outer, inner = cycle_edges[0]
            module, node = self._edges[outer, inner]
            path = " -> ".join([outer, *_path_within(graph, members, inner, outer)])
            found = self.finding(
                module, ctx, node,
                f"lock-order cycle {path}: these locks are acquired in "
                "conflicting orders; impose a global acquisition order",
            )
            if found is not None:
                yield found
        self._edges = self._locks = _FirstSites()


# -- the dataflow reporter before the lock graph -------------------------------


def _lock_edges_oracle(graph: CallGraph) -> dict[tuple[str, str], tuple[str, int, str]]:
    """Lexical plus call-while-holding edges, each with its first witness,
    built as the taint analysis built them."""
    order = graph.sorted_functions()
    closure: dict[str, set[str]] = {qualname: set() for qualname in order}
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for qualname in order:
        _, function = graph.functions[qualname]
        closure[qualname].update(function.lock_acquires)
        for edge in function.lock_edges:
            edges.setdefault(edge, (qualname, function.line, _LEXICAL))
    changed = True
    while changed:
        changed = False
        for qualname in order:
            for site, target in graph.callsite_targets(qualname):
                if target is None:
                    continue
                for identity in sorted(closure[target]):
                    if identity not in closure[qualname]:
                        closure[qualname].add(identity)
                        changed = True
                    for held in site.held_locks:
                        if held == identity or (held, identity) in edges:
                            continue
                        edges[held, identity] = (
                            qualname,
                            site.line,
                            f"call into {target}() while holding {held}",
                        )
                        changed = True
    return edges


def _cross_function_oracle(self, ctx: DataflowContext):
    """``CrossFunctionLockCycleDetector.findings`` before the lock graph."""
    edges = _lock_edges_oracle(ctx.graph)
    graph: dict[str, set[str]] = {}
    for outer, inner in edges:
        graph.setdefault(outer, set()).add(inner)
        graph.setdefault(inner, set())
    for component in strongly_connected(graph):
        members = set(component)
        cycle_edges = sorted(
            (outer, inner)
            for (outer, inner) in edges
            if outer in members and inner in members
        )
        if len(component) < 2 and not any(
            outer == inner for outer, inner in cycle_edges
        ):
            continue
        inter = [
            (edge, edges[edge]) for edge in cycle_edges if edges[edge][2] != _LEXICAL
        ]
        if not inter:
            continue
        (outer, inner), (qualname, line, how) = inter[0]
        order = " -> ".join(sorted(members))
        found = self.finding(
            ctx,
            ctx.module_path(qualname),
            line,
            0,
            f"cross-function lock-order cycle [{order}]: "
            f"{outer} is held while {inner} is acquired via {how} "
            "— another thread taking the opposite order deadlocks",
        )
        if found is not None:
            yield found


# -- one report with the detectors, one with the oracles -----------------------


def _reports(target: Path, root: Path) -> tuple[str, str]:
    classic = run_lint([target], root=root)
    flow = run_interprocedural([target], root=root, cache_root=None)
    return to_json(classic), to_json(flow.report)


def _oracle_reports(target: Path, root: Path, monkeypatch) -> tuple[str, str]:
    detectors = [
        _LexicalCycleOracle() if isinstance(d, LockOrderCycleDetector) else d
        for d in default_detectors()
    ]
    with monkeypatch.context() as patched:
        patched.setattr(analyzer_engine, "default_detectors", lambda: detectors)
        classic = run_lint([target], root=root)
        patched.setattr(CrossFunctionLockCycleDetector, "findings", _cross_function_oracle)
        flow = run_interprocedural([target], root=root, cache_root=None)
    return to_json(classic), to_json(flow.report)


@pytest.mark.parametrize(
    "target",
    [*sorted(FIXTURES.rglob("*.py")), FIXTURES, FIXTURES / "dataflow", PACKAGE],
    ids=lambda p: p.relative_to(REPO).as_posix(),
)
def test_reports_match_the_oracles(target, monkeypatch):
    root = REPO if target == PACKAGE else FIXTURES
    assert _reports(target, root) == _oracle_reports(target, root, monkeypatch)


# -- generated programs --------------------------------------------------------


def _body(rng: random.Random, locks: list[str], calls: list[str], call_rate: float,
          depth: int, indent: int) -> list[str]:
    """One to three statements: ``with`` blocks (one or two items, a lock
    may repeat), calls, or ``pass``."""
    pad = "    " * indent
    lines: list[str] = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth < 3 and roll < 0.5:
            items = rng.choices(locks, k=rng.choice((1, 1, 2)))
            lines.append(f"{pad}with {', '.join(items)}:")
            lines += _body(rng, locks, calls, call_rate, depth + 1, indent + 1)
        elif roll < 0.5 + call_rate / 2:
            lines.append(f"{pad}{rng.choice(calls)}()")
        else:
            lines.append(f"{pad}pass")
    return lines


def _lock_program(seed: int) -> dict[str, str]:
    """Two to four modules whose functions and methods nest ``with`` blocks
    over module-level, imported and ``self.`` locks, and call each other,
    across modules too, while holding them."""
    rng = random.Random(seed)
    modules = [f"m{i}" for i in range(rng.randint(2, 4))]
    functions = {m: [f"{m}_f{j}" for j in range(rng.randint(1, 3))] for m in modules}
    call_rate = rng.choice((0.0, 0.4, 0.8))
    files: dict[str, str] = {}
    for module in modules:
        imports: dict[str, list[str]] = {}
        for other in modules:
            if other != module:
                names = [f"{other}_lock"] if rng.random() < 0.7 else []
                names += [f for f in functions[other] if rng.random() < 0.5]
                if names:
                    imports[other] = names
        imported = [name for names in imports.values() for name in names]
        locks = [f"{module}_lock", *(n for n in imported if n.endswith("_lock"))]
        calls = [*functions[module], *(n for n in imported if not n.endswith("_lock"))]
        lines = ["import threading"]
        lines += [f"from {other} import {', '.join(names)}" for other, names in imports.items()]
        lines += ["", f"{module}_lock = threading.Lock()", ""]
        if rng.random() < 0.3:
            lines += _body(rng, locks, calls, call_rate, 0, 0)
        for function in functions[module]:
            lines.append(f"def {function}():")
            lines += _body(rng, locks, calls, call_rate, 0, 1)
        lines += ["class Box:", "    def __init__(self):",
                  "        self._lock = threading.Lock()"]
        for method in ("left", "right"):
            lines.append(f"    def {method}(self):")
            lines += _body(rng, [*locks, "self._lock"],
                           [*calls, "self.left", "self.right"], call_rate, 0, 2)
        files[f"{module}.py"] = "\n".join(lines) + "\n"
    return files


def _write(tmp_path: Path, seed: int) -> Path:
    program = tmp_path / f"program{seed}"
    program.mkdir()
    for name, source in _lock_program(seed).items():
        (program / name).write_text(source, encoding="utf-8")
    return program


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_match_the_oracles(tmp_path, seed, monkeypatch):
    program = _write(tmp_path, seed)
    assert _reports(program, program) == _oracle_reports(program, program, monkeypatch)


def test_generated_programs_hold_every_kind_of_cycle(tmp_path):
    """Two- and three-lock cycles, lexical-only and mixed ones, and mixed
    ones whose first sorted edge is lexical (where the dataflow detector's
    anchor differs from the classic one's)."""
    kinds: set[str] = set()
    for seed in SEEDS:
        program = _write(tmp_path, seed)
        graph = run_interprocedural([program], root=program, cache_root=None).graph
        edges = _lock_edges_oracle(graph)
        successors: dict[str, set[str]] = {}
        for outer, inner in edges:
            successors.setdefault(outer, set()).add(inner)
            successors.setdefault(inner, set())
        for component in strongly_connected(successors):
            inside = sorted(e for e in edges if e[0] in component and e[1] in component)
            if not inside:
                continue
            kinds.add("two-lock" if len(component) == 2 else "three-or-more-lock")
            lexical = [edges[e][2] == _LEXICAL for e in inside]
            if all(lexical):
                kinds.add("lexical-only")
            elif any(lexical):
                kinds.add("mixed")
                if lexical[0]:
                    kinds.add("mixed, lexical first")
    assert kinds == {
        "two-lock", "three-or-more-lock", "lexical-only", "mixed", "mixed, lexical first",
    }
