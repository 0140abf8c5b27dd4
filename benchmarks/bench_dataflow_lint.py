"""Incremental interprocedural lint: the summary cache must pay >= 5x.

The dataflow engine's contract is that per-module summaries are pure
functions of one module's source bytes, so a warm cache turns the whole
summarize phase into digest lookups — no ``ast.parse`` at all.  This
bench runs the full self-scan (every module under ``src/repro``) twice
against a fresh cache directory and gates three facts in
``benchmarks/BENCH_trajectory.json``:

* **warm >= 5x cold** — ``speedup_floor`` records ``min(speedup, 5.0)``
  so the committed value is exactly the floor and any slip below it is a
  gate failure, while the raw ``speedup`` rides along ungated (CI
  machines vary; the floor is what the design owes);
* **the self-scan stays clean** — ``unsuppressed_errors`` is pinned at
  zero: every ``dataflow.*`` error in this repo is either fixed or
  carries an inline justification;
* **cold and warm reports are byte-identical** — the cache changes cost,
  never answers.
"""

from __future__ import annotations

import pathlib
import time

from conftest import once

from repro.observability.trajectory import TrajectoryStore
from repro.staticanalysis import Severity, run_interprocedural, to_json

TRAJECTORY = pathlib.Path(__file__).parent / "BENCH_trajectory.json"
REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The design floor: a warm self-scan must be at least this much faster.
SPEEDUP_FLOOR = 5.0


def test_bench_summary_cache_speedup(benchmark, tmp_path):
    """Cold vs warm self-scan over ``src/repro`` with a fresh cache."""
    cache = tmp_path / "summary-cache"

    def run():
        start = time.perf_counter()
        cold = run_interprocedural([SRC], root=REPO, cache_root=cache, jobs=2)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_interprocedural([SRC], root=REPO, cache_root=cache, jobs=2)
        warm_s = time.perf_counter() - start
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = once(benchmark, run)
    speedup = cold_s / warm_s
    errors = [
        f for f in warm.report.active if f.severity is Severity.ERROR
    ]
    print()
    print(f"  cold {cold_s:.2f}s ({cold.stats['cache_misses']} summarized), "
          f"warm {warm_s:.2f}s ({warm.stats['cache_hits']} cache hits): "
          f"{speedup:.1f}x")
    print(f"  {warm.stats['modules']} modules, "
          f"{warm.stats['functions']} functions, "
          f"{warm.stats['resolved_edges']} resolved edges, "
          f"{len(warm.report.findings)} finding(s), {len(errors)} error(s)")

    # Gate 1: the cache actually skipped every re-parse.
    assert cold.stats["cache_misses"] == cold.stats["modules"]
    assert warm.stats["cache_hits"] == warm.stats["modules"]
    assert warm.stats["cache_misses"] == 0
    # Gate 2: caching changes cost, never answers.
    assert to_json(cold.report) == to_json(warm.report)
    # Gate 3: the warm path pays for itself five times over.
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm self-scan only {speedup:.1f}x over cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # Gate 4: the self-scan is clean at --fail-on error.
    assert not errors, f"unsuppressed dataflow errors: {errors}"

    entry = {
        "bench": "dataflow_lint",
        "modules": warm.stats["modules"],
        "functions": warm.stats["functions"],
        "resolved_edges": warm.stats["resolved_edges"],
        "findings": len(warm.report.findings),
        "unsuppressed_errors": len(errors),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "speedup_floor": min(round(speedup, 2), SPEEDUP_FLOOR),
    }
    TrajectoryStore(TRAJECTORY).record(entry)
