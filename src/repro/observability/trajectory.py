"""Persistent benchmark trajectory with a gated regression check.

``benchmarks/BENCH_trajectory.json`` is the repo's performance memory:
one entry per benchmark, refreshed in place when that bench reruns, so
the committed file always states the numbers the current tree earns.
The paper measures projects by their *history* (resolution-time CDFs
over tracker event streams); this file is the analogous history for our
own runtime, and :meth:`TrajectoryStore.check` is what turns it from a
log into a gate.

The check compares a *candidate* trajectory (freshly produced by the CI
bench run) against a *baseline* (the committed file) under per-metric
:class:`GateRule` tolerances — ``higher``-is-better metrics may not drop
more than ``tolerance`` (fractional), ``lower``-is-better ones may not
rise more than it.  Violations raise :class:`TrajectoryGateError` with
every failing metric listed, so a regression is a red CI job, not a
silently refreshed number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ObservabilityError, TrajectoryGateError
from repro.parallel.cache import atomic_write

DIRECTION_HIGHER = "higher"
DIRECTION_LOWER = "lower"


@dataclass(frozen=True)
class GateRule:
    """Tolerance for one metric of one benchmark.

    ``tolerance`` is fractional: 0.1 on a ``higher``-is-better metric
    means the candidate may be at most 10% below baseline; on ``lower``
    it may be at most 10% above.
    """

    bench: str
    metric: str
    direction: str
    tolerance: float

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_HIGHER, DIRECTION_LOWER):
            raise ObservabilityError(
                f"{self.bench}:{self.metric}: direction must be "
                f"'higher' or 'lower', got {self.direction!r}"
            )
        if self.tolerance < 0:
            raise ObservabilityError(
                f"{self.bench}:{self.metric}: tolerance must be >= 0"
            )

    def evaluate(self, baseline: float, candidate: float) -> "GateResult":
        if self.direction == DIRECTION_HIGHER:
            floor = baseline * (1.0 - self.tolerance)
            passed = candidate >= floor
            bound = floor
        else:
            ceiling = baseline * (1.0 + self.tolerance)
            passed = candidate <= ceiling
            bound = ceiling
        return GateResult(
            rule=self,
            baseline=baseline,
            candidate=candidate,
            bound=bound,
            passed=passed,
        )

    @classmethod
    def parse(cls, spec: str) -> "GateRule":
        """Parse ``BENCH:METRIC:DIRECTION:TOLERANCE`` (the CLI syntax)."""
        parts = spec.split(":")
        if len(parts) != 4:
            raise ObservabilityError(
                f"gate spec {spec!r} is not BENCH:METRIC:DIRECTION:TOL"
            )
        bench, metric, direction, tol = parts
        try:
            tolerance = float(tol)
        except ValueError as exc:
            raise ObservabilityError(
                f"gate spec {spec!r}: bad tolerance {tol!r}"
            ) from exc
        return cls(
            bench=bench, metric=metric, direction=direction,
            tolerance=tolerance,
        )


@dataclass(frozen=True)
class GateResult:
    """Outcome of one rule evaluation."""

    rule: GateRule
    baseline: float
    candidate: float
    bound: float
    passed: bool

    def describe(self) -> str:
        arrow = (
            ">=" if self.rule.direction == DIRECTION_HIGHER else "<="
        )
        verdict = "ok" if self.passed else "REGRESSION"
        return (
            f"{self.rule.bench}:{self.rule.metric} [{verdict}] "
            f"candidate={self.candidate:g} {arrow} bound={self.bound:g} "
            f"(baseline={self.baseline:g}, tol={self.rule.tolerance:g} "
            f"{self.rule.direction}-is-better)"
        )


#: The committed gates.  Tolerances are loose enough for scheduler noise
#: across Python versions but far tighter than a real regression: the
#: sim-clock serving bench is deterministic per seed, so a 10% goodput
#: drop can only mean the code changed behavior.
DEFAULT_GATES: tuple[GateRule, ...] = (
    GateRule("serving_overload_ab", "goodput_hardened", DIRECTION_HIGHER, 0.10),
    GateRule("serving_overload_ab", "goodput_ratio", DIRECTION_HIGHER, 0.10),
    GateRule("serving_overload_ab", "p99_hardened", DIRECTION_LOWER, 0.25),
    # Streaming ingest counters are pure functions of (seed, config), so
    # any drift at all is a behavior change: ``applied`` is gated in both
    # directions (exact equality), the loss counters may only shrink, and
    # ``unaccounted`` is pinned to its committed value of zero.
    # Throughput (events/s wall clock) is recorded in the trajectory but
    # deliberately ungated: CI machines vary, determinism does not.
    GateRule("streaming_ingest", "applied", DIRECTION_HIGHER, 0.0),
    GateRule("streaming_ingest", "applied", DIRECTION_LOWER, 0.0),
    GateRule("streaming_ingest", "dead_lettered", DIRECTION_LOWER, 0.0),
    GateRule("streaming_ingest", "lost_upstream", DIRECTION_LOWER, 0.0),
    GateRule("streaming_ingest", "unaccounted", DIRECTION_LOWER, 0.0),
    # Interprocedural lint: ``speedup_floor`` is min(measured, 5.0), so
    # the committed baseline is exactly 5.0 and any warm-cache slip below
    # the design floor fails the gate without coupling CI to raw machine
    # speed; the self-scan must also stay clean at --fail-on error.
    GateRule("dataflow_lint", "speedup_floor", DIRECTION_HIGHER, 0.0),
    GateRule("dataflow_lint", "unsuppressed_errors", DIRECTION_LOWER, 0.0),
)


class TrajectoryStore:
    """One-entry-per-bench JSON trajectory with atomic refresh.

    The on-disk shape is exactly what PR 7 seeded::

        {"entries": [{"bench": "...", <metric>: <number>, ...}, ...]}

    ``record`` replaces the entry for its bench in place (the file is a
    *current-state* trajectory; git history is the time series) and
    publishes with the repo's fsync-then-rename discipline so a crash
    mid-write can't tear the committed baseline.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # -- I/O -------------------------------------------------------------------
    def load(self) -> list[dict[str, Any]]:
        if not self.path.exists():
            return []
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as exc:
            raise ObservabilityError(
                f"{self.path}: unreadable trajectory file: {exc}"
            ) from exc
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ObservabilityError(
                f"{self.path}: trajectory file has no 'entries' list"
            )
        return [dict(entry) for entry in entries]

    def entry(self, bench: str) -> dict[str, Any] | None:
        for entry in self.load():
            if entry.get("bench") == bench:
                return entry
        return None

    def record(self, entry: Mapping[str, Any]) -> dict[str, Any] | None:
        """Insert or refresh ``entry`` (keyed by ``bench``); return the
        previous entry for that bench, if any."""
        bench = entry.get("bench")
        if not bench:
            raise ObservabilityError("trajectory entry needs a 'bench' key")
        entries = self.load()
        previous = None
        for index, existing in enumerate(entries):
            if existing.get("bench") == bench:
                previous = existing
                entries[index] = dict(entry)
                break
        else:
            entries.append(dict(entry))
        entries.sort(key=lambda e: str(e.get("bench", "")))
        self._write(entries)
        return previous

    def _write(self, entries: list[dict[str, Any]]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.path, json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n"
        )

    # -- gating ----------------------------------------------------------------
    def check(
        self,
        candidate: "TrajectoryStore | str | Path | None" = None,
        *,
        gates: Iterable[GateRule] = DEFAULT_GATES,
    ) -> list[GateResult]:
        """Evaluate ``candidate`` against this store's entries.

        With no candidate the store is compared against itself — a
        freshly committed baseline always passes its own gates (this is
        also how CI validates that the committed file and the committed
        gate rules agree).  A gate whose bench or metric is absent from
        *both* sides is skipped (a bench not run is not a regression);
        present on one side only raises, because a silently vanished
        metric is exactly the drift the gate exists to catch.

        Returns every evaluated :class:`GateResult`; raises
        :class:`TrajectoryGateError` listing all failures if any rule
        failed.
        """
        if candidate is None:
            cand_store: TrajectoryStore = self
        elif isinstance(candidate, TrajectoryStore):
            cand_store = candidate
        else:
            cand_store = TrajectoryStore(candidate)
        results: list[GateResult] = []
        for rule in sorted(
            gates, key=lambda r: (r.bench, r.metric, r.direction)
        ):
            base_entry = self.entry(rule.bench)
            cand_entry = cand_store.entry(rule.bench)
            if base_entry is None and cand_entry is None:
                continue
            base_value = _metric(base_entry, rule, self.path)
            cand_value = _metric(cand_entry, rule, cand_store.path)
            results.append(rule.evaluate(base_value, cand_value))
        failures = [r for r in results if not r.passed]
        if failures:
            raise TrajectoryGateError(
                "trajectory regression:\n"
                + "\n".join(f"  {r.describe()}" for r in failures)
            )
        return results


def _metric(
    entry: Mapping[str, Any] | None, rule: GateRule, path: Path
) -> float:
    if entry is None:
        raise ObservabilityError(
            f"{path}: bench {rule.bench!r} is gated but absent"
        )
    value = entry.get(rule.metric)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ObservabilityError(
            f"{path}: {rule.bench}:{rule.metric} is gated but missing "
            f"or non-numeric (got {value!r})"
        )
    return float(value)
