"""One workload run in one fresh process (started by ``run.py``).

Set-up (imports, input preparation, warm-up) ends at the first timed unit;
``--setup-only`` stops there, which is how ``run.py`` samples ``setup_s``.
Untraced runs repeat identical units for ``--seconds`` and report the median
of each timing, in host-corrected seconds (see :mod:`hostspeed`).  Traced
runs alternate an untraced and a traced unit, so the tracing overhead is
measured on the same host state.  The heap is collected before every unit,
so each starts from the state a fresh process would.  The last stdout line
is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCES = HERE / "references.json"
SPANS_DIR = ROOT / ".bench_out"


def _count_fsyncs() -> list[int]:
    """Replace ``os.fsync`` with a counter.

    Run directories must stay inside the checkout, which is on disk; a
    counted no-op gives fsync the cost it has on RAM-backed storage, so
    disk latency never enters a timing.  ``recovery.fsyncs`` keeps the count.
    """
    calls = [0]

    def fsync(fd: int) -> None:
        calls[0] += 1

    os.fsync = fsync
    return calls


def _estimate(values: list[float]) -> float:
    return statistics.median(values)


def _unit(workload, k: int, tracer):
    gc.collect()
    return workload.unit(k, tracer)


def _run_units(workload, seconds: float, traced: bool):
    """Timed units until ``seconds`` are used, never fewer than ``min_units``."""
    import layers
    from tracing import Tracer, check_closure
    from workloads import NullTracer

    plain, traced_units, tracers, per_layer, walls = [], [], [], [], []
    min_steps = 1 if traced else workload.min_units
    start = time.perf_counter()
    step_s = 0.0
    for step in range(10_000):
        if step >= min_steps and time.perf_counter() - start + step_s > seconds:
            break
        step_start = time.perf_counter()
        k = len(plain) + len(traced_units)
        plain.append(_unit(workload, k, NullTracer()))
        if traced:
            tracer = Tracer(unit=k + 1)
            patcher = layers.install(tracer)
            try:
                wall_start = time.perf_counter()
                root = tracer.begin("root")
                result = _unit(workload, k + 1, tracer)
                tracer.finish(root)
                wall = time.perf_counter() - wall_start
            finally:
                patcher.restore()
            traced_units.append(result)
            tracers.append(tracer)
            check_closure(tracer.spans, wall)
            walls.append(wall)
            per_layer.append(layers.unit_metrics(tracer, result.counts))
        step_s = time.perf_counter() - step_start
    return plain, traced_units, tracers, per_layer, walls


def _checks(workload, units, references) -> tuple[list[str], int]:
    """All output checks; returns (problems, failed operations)."""
    problems, failed = [], 0
    first = units[0].outputs
    for k, unit in enumerate(units):
        unit_problems = list(unit.problems)
        if unit.outputs != first:
            unit_problems.append(f"unit {k} outputs differ from unit 0")
        if workload.default:
            unit_problems += workload.reference_problems(unit.outputs, references)
        problems += [f"unit {k}: {p}" for p in unit_problems]
        failed += unit.attempted if unit_problems else workload.failed(unit)
    final = workload.final_check(units)
    problems += final
    if final:
        failed += units[0].attempted
    return problems, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from hostspeed import HostSpeed

    host = HostSpeed().start()
    fsyncs = _count_fsyncs()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    ready = time.perf_counter()
    # Scales the set-up span (from process start, which run.py stamps) to
    # host-corrected seconds; the sampler starts a few ms after the process.
    setup_slowdown = host.slowdown(0.0, ready)
    if args.setup_only:
        host.stop()
        print(json.dumps({"ready": ready, "setup_slowdown": setup_slowdown}))
        return 0

    traced = bool(args.trace)
    plain, traced_units, tracers, per_layer, walls = _run_units(workload, args.seconds, traced)
    host.stop()
    units = plain + traced_units

    def cold(u):
        return u.cold_s / host.slowdown(u.start, u.cold_end)

    def warm(u):
        return u.warm_s / host.slowdown(u.cold_end, u.end)

    references = json.loads(REFERENCES.read_text())[workload.name]
    problems, failed = _checks(workload, units, references)
    out = {
        "ready": ready,
        "setup_slowdown": setup_slowdown,
        "units": len(units),
        "unit_walls": [u.wall_s for u in plain],
        "unit_slowdowns": [host.slowdown(u.start, u.end) for u in plain],
        "attempted": sum(u.attempted for u in units),
        "failed": failed,
        "problems": problems,
        "fsyncs": fsyncs[0],
    }
    if traced:
        import layers
        from tracing import write_spans

        metrics = layers.combine(per_layer)
        plain_wall = _estimate([cold(u) + warm(u) for u in plain])
        traced_wall = _estimate([cold(u) + warm(u) for u in traced_units])
        metrics["tracing.overhead_ratio"] = traced_wall / plain_wall - 1.0
        out["per_layer"] = metrics
        out["traced_wall_s"] = _estimate(walls)
        write_spans(SPANS_DIR / f"{workload.name}-spans.jsonl", tracers)
    else:
        out["end_to_end"] = {
            "wall_s": _estimate([cold(u) + warm(u) for u in units]),
            "cold_s": _estimate([cold(u) for u in units]),
            "relint_s": _estimate([warm(u) for u in units]),
            "events_per_s": _estimate([u.records / cold(u) for u in units]),
            "schedules_per_s": _estimate([u.executions / cold(u) for u in units]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
