"""Every definition in ``src/repro`` is reached from an entry point.

A definition is a top-level function or class, or a method of a top-level
class other than a ``__dunder__`` (Python calls those itself).

Entry points are the ``repro`` CLI, the experiment registry, the benchmarks,
the perfbench workloads and the examples.  A definition is reached when code
in ``src/repro``, ``benchmarks``, ``perfbench`` or ``examples`` names it
outside the definition's own body; tests do not count, so a function that
only its own unit tests call shows up here.

The scan is by name, not by call graph: a ``Name``, an attribute name or an
identifier-shaped string constant (``"CorpusGenerator.generate"`` as
perfbench patches it) counts as a use.  Import statements and ``__all__``
lists are not uses, so a re-export alone keeps nothing alive.  Uses inside an
unreached definition do not count either, which is iterated to a fixpoint: a
helper whose only caller is dead is dead too.  The methods of an unreached
class go with it and are not listed on their own.

The option scan asks the same of every defaulted parameter of those
definitions (``__init__`` included, matched by its class's name) and of
every field of a ``*Config`` dataclass and of ``Thresholds``: some call in
an entry point must set it, or it is a configuration no run uses that a
test matrix must still cover.  Calls are matched by name as above, and
tests do not count here either: an option only a test sets is one no run
sets.  A call sets a parameter by keyword, by position (a bound method's
first parameter takes no position), through ``functools.partial`` or the
benchmarks' ``once(benchmark, fn, ...)``, or through a ``*``/``**`` splat
that could carry it; ``cls(...)`` in a classmethod is a call of its class.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "benchmarks", "perfbench", "examples")
NOT_SCANNED = ("perfbench/tests",)
DEFINITIONS_UNDER = "src/repro"

#: Unreached definitions that stay, each with its reason.
ALLOWED_UNREACHED = {
    "src/repro/fuzzing/mutate.py:validate_schedule": (
        "oracle: the well-formedness check of the hypothesis mutation tests"
    ),
    "src/repro/sdnsim/controller.py:App": (
        "declaration: the Protocol that controller applications implement"
    ),
    "src/repro/staticanalysis/checks/__init__.py:detector_ids": (
        "accessor: tests enumerate the classic detectors through it"
    ),
    "src/repro/staticanalysis/dataflow/detectors.py:dataflow_detector_ids": (
        "accessor: tests enumerate the dataflow detectors through it"
    ),
    "src/repro/staticanalysis/dataflow/summaries.py:summarize_source": (
        "helper: tests summarize one loaded module without the cache"
    ),
    "src/repro/recovery/fold.py:Snapshot.canonical_json": (
        "accessor: tests hold a snapshot's joined pieces to json.dumps(to_dict())"
    ),
    "src/repro/resilience/ledger.py:ResilienceLedger.by_event": (
        "accessor: tests read one event's records through it"
    ),
    "src/repro/resilience/breaker.py:CircuitBreaker.probes_inflight": (
        "accessor: tests read the half-open probe count through it"
    ),
    "src/repro/faultinjection/campaign.py:CampaignResult.result_for": (
        "accessor: tests look up one fault's result through it"
    ),
    "src/repro/faultinjection/campaign.py:AbReport.result_for": (
        "accessor: tests look up one fault's A/B result through it"
    ),
    "src/repro/resilience/policies.py:RetryPolicy.delays": (
        "accessor: tests read the whole backoff schedule through it"
    ),
}

#: Defaulted parameters that no entry point sets and that stay, each with
#: its reason: a seam that substitutes a test double or lets a test trip a
#: safety bound quickly, an option that selects a method the paper reports,
#: or a call the scan by name cannot follow.
ALLOWED_UNSET = {
    "src/repro/recovery/fold.py:Snapshot.load:expect_digest": (
        "set through the load_state callable restore_snapshot receives, "
        "a call the scan by name cannot follow"
    ),
    "src/repro/serving/backends.py:StubBackend.__init__:fail_ids": (
        "seam: the stub backend fails the given requests, so tests trip "
        "the serving breaker and the degradation tiers"
    ),
    "src/repro/chaos/monkey.py:ChaosMonkey.__init__:perturbations": (
        "seam: tests hand the monkey a small or deliberately crashing arsenal"
    ),
    "src/repro/sdnsim/services.py:TimeSeriesDB.__init__:available": (
        "seam: tests start the TSDB down to drive the guarded retry path"
    ),
    "src/repro/fuzzing/mutate.py:mutate:operator": (
        "seam: tests pin one mutation operator to check what it produces"
    ),
    "src/repro/sdnsim/clock.py:EventScheduler.run:max_events": (
        "seam: tests trip the scheduler's runaway bound without running "
        "a million events"
    ),
    "src/repro/parallel/executor.py:WorkPool.__init__:poison_attempts": (
        "seam: tests quarantine a worker-killing task after fewer deaths"
    ),
    "src/repro/pipeline/autoclassifier.py:AutoClassifier.__init__:pca_dim": (
        "method: the paper's PCA variant of the classifier (§II-C)"
    ),
    "src/repro/trackers/jira.py:JiraTracker.search:min_severity": (
        "method: the BLOCKER+CRITICAL selection the study is built on"
    ),
}

_IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = (*_FUNCTION, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def names_used(tree: ast.AST) -> Counter:
    """Every use of a name under ``tree``, imports and ``__all__`` skipped."""
    used: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER_PATH.fullmatch(node.value)
        ):
            used.update(re.split(r"[.:]", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return used


def _scanned_files(tops: Iterable[str] = SCANNED) -> list[Path]:
    files = []
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if not rel.startswith(NOT_SCANNED):
                files.append(path)
    return files


def unreached_definitions() -> set[str]:
    """``path:name`` of every top-level definition, and ``path:Class.name``
    of every method, that nothing reached names."""
    total: Counter = Counter()
    definitions: dict[str, tuple[str, Counter]] = {}
    #: method key -> the key of its class.
    owner: dict[str, str] = {}
    for path in _scanned_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        total.update(names_used(tree))
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith(DEFINITIONS_UNDER):
            for node in tree.body:
                if not isinstance(node, _DEFINITION):
                    continue
                key = f"{rel}:{node.name}"
                definitions[key] = (node.name, names_used(node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, _FUNCTION) and not _is_dunder(item.name):
                        method = f"{key}.{item.name}"
                        definitions[method] = (item.name, names_used(item))
                        owner[method] = key
    unreached: set[str] = set()
    while True:
        live = total.copy()
        for key in unreached:
            # A dead class's methods were subtracted with it.
            if owner.get(key) not in unreached:
                live.subtract(definitions[key][1])
        grown = unreached | {
            key
            for key, (name, own) in definitions.items()
            if key not in unreached and live[name] - own[name] <= 0
        }
        if grown == unreached:
            return {key for key in unreached if owner.get(key) not in unreached}
        unreached = grown


def _string_annotation_uses(tree: ast.AST) -> Counter:
    """Uses inside string annotations (``"list[AdversaryResult]"``), which
    ``names_used`` sees only as strings."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(names_used(ast.parse(part.value, mode="eval")))
    return used


def unused_imports(tree: ast.AST) -> list[str]:
    """Every name an import statement under ``tree`` binds and nothing uses
    (``from __future__`` imports aside)."""
    used = names_used(tree) + _string_annotation_uses(tree)
    unused: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused.extend(name for name in bound if not used[name])
    return unused


def test_names_used_skips_imports_and_all_but_counts_strings():
    tree = ast.parse(
        "from m import a\n"
        "import b\n"
        "__all__ = ['c']\n"
        "d()\n"
        "e.f\n"
        "PATCH = 'g.h'\n"
        "DOC = 'not an identifier'\n"
    )
    used = names_used(tree)
    assert not {"a", "b", "c", "not"} & set(used)
    assert {"d", "e", "f", "g", "h", "PATCH", "DOC"} <= set(used)


def test_every_definition_is_reached_from_an_entry_point():
    unreached = unreached_definitions()
    unexpected = sorted(unreached - set(ALLOWED_UNREACHED))
    stale = sorted(set(ALLOWED_UNREACHED) - unreached)
    assert not unexpected, (
        "no entry point reaches these definitions; delete them (and the "
        f"tests whose only subject they are) or allowlist them: {unexpected}"
    )
    assert not stale, f"allowlisted but reached or gone: {stale}"


def test_unused_imports_counts_string_annotations():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from m import a, b as c, d, e\n"
        "def f(x: 'list[a]') -> 'c | None':\n"
        "    return os.path.join(x)\n"
        "y: 'd' = 1\n"
    )
    assert unused_imports(tree) == ["json", "e"]


def test_no_module_imports_a_name_it_does_not_use():
    """The check CI's ``ruff`` (rule F401) makes, for a machine without it.

    ``__init__`` modules are skipped: their imports are the package's
    exports.
    """
    unused = []
    for path in sorted((ROOT / DEFINITIONS_UNDER).rglob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            rel = path.relative_to(ROOT).as_posix()
            unused += [f"{rel}:{name}" for name in unused_imports(tree)]
    assert not unused, f"imported but never used: {unused}"


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool) -> dict:
    """Each defaulted parameter of ``fn`` -> the position a call passes it
    at (``None`` for a keyword-only one)."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    offset = 1 if bound else 0
    first_defaulted = len(positional) - len(fn.args.defaults)
    defaulted = {
        name: index - offset
        for index, name in enumerate(positional)
        if index >= first_defaulted
    }
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            defaulted[arg.arg] = None
    return defaulted


def _is_config(node: ast.ClassDef) -> bool:
    """A ``*Config`` dataclass, or the smell detectors' ``Thresholds``."""
    dataclass_ = any(
        _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )
    return dataclass_ and (node.name.endswith("Config") or node.name == "Thresholds")


def _fields(node: ast.ClassDef) -> dict:
    """Each defaulted field of a dataclass -> its position in ``__init__``."""
    fields = [
        item for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
    ]
    return {
        item.target.id: index
        for index, item in enumerate(fields)
        if item.value is not None
    }


def option_definitions(rel: str, tree: ast.Module) -> dict[str, tuple[str, dict]]:
    """``path:name`` (``path:Class.method``) -> (the name calls use, its
    defaulted parameters) for every top-level function, ``__init__`` and
    non-dunder method under ``tree``, and ``path:Class`` -> (the class name,
    its defaulted fields) for every config dataclass."""
    found: dict[str, tuple[str, dict]] = {}
    for node in tree.body:
        if isinstance(node, _FUNCTION):
            found[f"{rel}:{node.name}"] = (node.name, _defaulted(node, False))
        elif isinstance(node, ast.ClassDef):
            if _is_config(node):
                found[f"{rel}:{node.name}"] = (node.name, _fields(node))
            for item in node.body:
                if not isinstance(item, _FUNCTION) or (
                    _is_dunder(item.name) and item.name != "__init__"
                ):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                called_as = node.name if item.name == "__init__" else item.name
                found[f"{rel}:{node.name}.{item.name}"] = (
                    called_as, _defaulted(item, not static)
                )
    return found


@dataclass(frozen=True)
class CallShape:
    """What one call passes: how many positional arguments come before
    any ``*`` splat, whether one follows, its keywords and any ``**``."""

    positional: int
    star: bool
    keywords: frozenset[str]
    double_star: bool

    def sets(self, name: str, position: int | None) -> bool:
        if self.double_star or name in self.keywords:
            return True
        return position is not None and (position < self.positional or self.star)


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _class_calls(tree: ast.AST) -> dict[int, str]:
    """``id`` of each ``cls(...)`` call in a classmethod -> its class name."""
    calls: dict[int, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, _FUNCTION) and any(
                isinstance(d, ast.Name) and d.id == "classmethod"
                for d in item.decorator_list
            ):
                calls.update(
                    (id(call), node.name) for call in ast.walk(item)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == "cls"
                )
    return calls


def call_shapes(tree: ast.AST) -> dict[str, list[CallShape]]:
    """Every call under ``tree``, by the name it calls; ``partial(f, ...)``
    and ``once(benchmark, f, ...)`` count as a call of ``f`` with the
    remaining arguments, and ``cls(...)`` in a classmethod as a call of its
    class."""
    class_calls = _class_calls(tree)
    shapes: dict[str, list[CallShape]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        elif name == "once" and len(args) > 1:
            name, args = _callee(args[1]), args[2:]
        elif id(node) in class_calls:
            name = class_calls[id(node)]
        if name is None:
            continue
        star = next(
            (i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)), None
        )
        shapes.setdefault(name, []).append(CallShape(
            positional=len(args) if star is None else star,
            star=star is not None,
            keywords=frozenset(k.arg for k in node.keywords if k.arg),
            double_star=any(k.arg is None for k in node.keywords),
        ))
    return shapes


def unset_options(
    definitions: dict[str, tuple[str, dict]], calls: dict[str, list[CallShape]]
) -> set[str]:
    """``key:parameter`` of every defaulted parameter no call sets."""
    return {
        f"{key}:{param}"
        for key, (called_as, params) in definitions.items()
        for param, position in params.items()
        if not any(shape.sets(param, position) for shape in calls.get(called_as, ()))
    }


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_option_scan_matches_calls_the_ways_a_call_can_set_them():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from functools import partial\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *, c=2, d=3, e=4): ...\n"
        "def g(x=0, y=0): ...\n"
        "def h(z=0): ...\n"
        "def t(w=0, o=0): ...\n"
        "class K:\n"
        "    def __init__(self, i=0, j=0): ...\n"
        "    def __eq__(self, other=None): ...\n"
        "    def m(self, p=0, q=0): ...\n"
        "    @staticmethod\n"
        "    def s(u=0, v=0): ...\n"
        "    @classmethod\n"
        "    def build(cls): return cls(j=1)\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    seed: int\n"
        "    jobs: int = 1\n"
        "    depth: int = 2\n"
        "    width: int = 3\n"
        "    KIND: ClassVar[str] = 'x'\n"
        "@dataclass\n"
        "class Record:\n"
        "    n: int = 0\n"
        "def calls(args, kwargs, obj, benchmark):\n"
        "    f(0, 1)\n"
        "    f(0, c=5)\n"
        "    partial(f, d=6)()\n"
        "    g(*args)\n"
        "    h(**kwargs)\n"
        "    K(1)\n"
        "    obj.m(1)\n"
        "    K.s(1)\n"
        "    once(benchmark, t, 1)\n"
        "    RunConfig(0, 4)\n"
        "    RunConfig(0, depth=5)\n"
    )
    definitions = option_definitions("m.py", tree)
    assert unset_options(definitions, call_shapes(tree)) == {
        "m.py:f:e", "m.py:K.m:q", "m.py:K.s:v", "m.py:t:o", "m.py:RunConfig:width",
    }


def test_every_option_is_set_by_some_call():
    definitions: dict[str, tuple[str, dict]] = {}
    for path in sorted((ROOT / DEFINITIONS_UNDER).rglob("*.py")):
        definitions.update(
            option_definitions(path.relative_to(ROOT).as_posix(), _parse(path))
        )
    calls: dict[str, list[CallShape]] = {}
    for path in _scanned_files():
        for name, shapes in call_shapes(_parse(path)).items():
            calls.setdefault(name, []).extend(shapes)
    unset = unset_options(definitions, calls)
    unexpected = sorted(unset - set(ALLOWED_UNSET))
    stale = sorted(set(ALLOWED_UNSET) - unset)
    assert not unexpected, (
        "no entry point sets these defaulted parameters or config fields "
        "(tests do not count); make each its value (a constant where code "
        f"reads it by name) or allowlist it: {unexpected}"
    )
    assert not stale, f"allowlisted but set or gone: {stale}"
