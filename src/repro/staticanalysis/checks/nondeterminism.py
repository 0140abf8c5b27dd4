"""Nondeterminism detectors (paper: non-deterministic bugs, SS III).

The study found ~5% of critical SDN bugs non-deterministic, and those the
hardest to reproduce and fix.  In this repo the whole experimental
contract is "same seed, same bytes", so *any* dependence on process-global
RNG state, wall clocks, or hash randomization is a reproducibility bug:

* ``unseeded-random`` — draws from the process-global ``random`` /
  ``numpy.random`` state, or constructs an RNG with no seed.
* ``wall-clock`` — reads real time (``time.time``, ``datetime.now``, ...)
  where the simulated clock (:mod:`repro.sdnsim.clock`) should be used.
* ``hash-seed`` — feeds builtin ``hash()`` (salted per process by
  ``PYTHONHASHSEED``) into an RNG seed.
* ``unordered-iteration`` — materializes hash-ordered ``set`` iteration
  into ordered output (lists, joins, digests) — the exact leak class that
  once made checkpoint digests differ across interpreters here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticanalysis.checks.base import (
    AnalysisContext,
    Detector,
    is_set_expr,
    set_typed_names,
)
from repro.staticanalysis.loader import ModuleInfo
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause

#: The process-global ``random`` module API (drawing functions).
_GLOBAL_RANDOM = {
    "random.random", "random.randint", "random.randrange", "random.uniform",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.gauss", "random.normalvariate", "random.lognormvariate",
    "random.expovariate", "random.betavariate", "random.gammavariate",
    "random.triangular", "random.vonmisesvariate", "random.paretovariate",
    "random.weibullvariate", "random.getrandbits", "random.randbytes",
}

#: Legacy numpy global-state API.
_GLOBAL_NUMPY = {
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.random_sample", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.permutation", "numpy.random.normal",
    "numpy.random.uniform", "numpy.random.standard_normal", "numpy.random.binomial",
    "numpy.random.poisson", "numpy.random.exponential",
}

#: Constructors that must receive an explicit seed.
_RNG_CONSTRUCTORS = {
    "random.Random", "random.SystemRandom", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.Generator",
}

#: Global seeding: deterministic if called early, but mutates state shared
#: across every caller — flagged as a warning, not an error.
_GLOBAL_SEEDERS = {"random.seed", "numpy.random.seed"}

_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}

#: Order-sensitive single-argument consumers of an iterable.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "next"}

#: Loop-body mutations that materialize iteration order.
_ACCUMULATORS = {"append", "extend", "insert", "write", "writelines"}

#: The nodes ``unordered-iteration`` inspects.
_ORDERING_SITES = (
    ast.Call, ast.For, ast.AsyncFor, ast.ListComp, ast.GeneratorExp,
)


class UnseededRandomDetector(Detector):
    id = "unseeded-random"
    family = "nondeterminism"
    description = (
        "process-global or unseeded RNG use; derive a seeded stream instead"
    )
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.MISSING_LOGIC

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.Call):
            qualified = module.resolve(node.func)
            if qualified is None:
                continue
            if qualified in _GLOBAL_RANDOM or qualified in _GLOBAL_NUMPY:
                found = self.finding(
                    module, ctx, node,
                    f"{qualified}() draws from the process-global RNG; "
                    "use a seeded random.Random/default_rng stream",
                )
            elif qualified in _RNG_CONSTRUCTORS and not node.args:
                found = self.finding(
                    module, ctx, node,
                    f"{qualified}() constructed without a seed falls back to "
                    "OS entropy; pass an explicit seed",
                )
            elif qualified in _GLOBAL_SEEDERS:
                found = self.finding(
                    module, ctx, node,
                    f"{qualified}() mutates RNG state shared by every caller; "
                    "prefer a local seeded generator",
                    severity=Severity.WARNING,
                )
            else:
                continue
            if found is not None:
                yield found


class WallClockDetector(Detector):
    id = "wall-clock"
    family = "nondeterminism"
    description = "real-time reads in simulated/pipeline code paths"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.Call):
            qualified = module.resolve(node.func)
            label = _WALL_CLOCK.get(qualified or "")
            if label is None:
                continue
            found = self.finding(
                module, ctx, node,
                f"{label} reads the wall clock; results depend on run time — "
                "use the simulated clock or take the timestamp as input",
            )
            if found is not None:
                yield found


class HashSeedDetector(Detector):
    id = "hash-seed"
    family = "nondeterminism"
    description = "builtin hash() (PYTHONHASHSEED-salted) feeding an RNG seed"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.MEMORY

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes_of(ast.Call, ast.Assign):
            hash_call = None
            if isinstance(node, ast.Call):
                qualified = module.resolve(node.func)
                if qualified in _RNG_CONSTRUCTORS or qualified in _GLOBAL_SEEDERS:
                    hash_call = _find_hash_call(node.args, module)
                else:
                    for keyword in node.keywords:
                        if keyword.arg == "seed":
                            hash_call = _find_hash_call([keyword.value], module)
                            break
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, ast.Name) and "seed" in t.id.lower()
                    for t in node.targets
                ):
                    hash_call = _find_hash_call([node.value], module)
            if hash_call is None:
                continue
            found = self.finding(
                module, ctx, hash_call,
                "hash() is salted per process by PYTHONHASHSEED; seed from "
                'stable bytes instead (e.g. random.Random(f"{seed}:{name}"))',
            )
            if found is not None:
                yield found


def _find_hash_call(exprs: list[ast.expr], module: ModuleInfo) -> ast.Call | None:
    for expr in exprs:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and module.resolve(node.func) == "hash"
                and node.args
            ):
                return node
    return None


class UnorderedIterationDetector(Detector):
    id = "unordered-iteration"
    family = "nondeterminism"
    description = "hash-ordered set iteration materialized into ordered output"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.MEMORY

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        # Per-scope set-name inference: module scope plus each function.
        scopes = [
            module.tree,
            *module.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef),
        ]
        for scope in scopes:
            set_names = set_typed_names(scope, module)
            for node in module.own_nodes(scope):
                if not isinstance(node, _ORDERING_SITES):
                    continue
                finding = self._check_node(node, set_names, module, ctx)
                if finding is not None:
                    yield finding

    def _check_node(
        self,
        node: ast.AST,
        set_names: set[str],
        module: ModuleInfo,
        ctx: AnalysisContext,
    ) -> Finding | None:
        def is_set(expr: ast.AST) -> bool:
            if is_set_expr(expr, module):
                return True
            return isinstance(expr, ast.Name) and expr.id in set_names

        if isinstance(node, ast.Call):
            qualified = module.resolve(node.func)
            # list(s) / tuple(s) / enumerate(s) over a set.
            if (
                qualified in _ORDER_SENSITIVE_CALLS
                and len(node.args) >= 1
                and is_set(node.args[0])
            ):
                return self.finding(
                    module, ctx, node,
                    f"{qualified}() over a set materializes hash order "
                    "(PYTHONHASHSEED-dependent); wrap in sorted()",
                )
            # "sep".join(s) over a set.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and is_set(node.args[0])
            ):
                return self.finding(
                    module, ctx, node,
                    "str.join over a set emits elements in hash order; "
                    "wrap in sorted()",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)) and is_set(node.iter):
            if _loop_accumulates(node):
                return self.finding(
                    module, ctx, node,
                    "iterating a set while appending/yielding leaks hash "
                    "order into ordered output; iterate sorted(...) instead",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for comp in node.generators:
                if is_set(comp.iter):
                    return self.finding(
                        module, ctx, node,
                        "comprehension over a set produces hash-ordered "
                        "elements; iterate sorted(...) instead",
                    )
        return None


def _loop_accumulates(loop: ast.For | ast.AsyncFor) -> bool:
    """Does the loop body make iteration order observable?"""
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ACCUMULATORS
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and _is_digest_receiver(node.func.value)
            ):
                return True
    return False


def _is_digest_receiver(node: ast.AST) -> bool:
    name = ""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    name = name.lower()
    return any(tag in name for tag in ("digest", "hash", "sha", "hmac"))
