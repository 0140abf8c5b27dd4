"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study|ingest|lint|fuzz|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh
process (``worker.py``) with a fixed ``PYTHONHASHSEED``, a run directory
under ``.bench_run/`` and ``jobs=1``.  ``setup_s`` is the median of several
fresh-process set-ups.  With ``--trace 0`` the last line holds every
end-to-end metric, with ``--trace 1`` every per-layer metric.  The exit code
is non-zero when an output check fails (or the program is missing).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "ingest", "lint", "fuzz")
#: Fresh-process set-ups sampled for ``setup_s``, besides the measured run's own.
SETUP_PROBES = 2
#: A run gives up (exit 2) once its processes have taken this long together.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "events_per_s": "records/s",
    "cold_s": "s",
    "relint_s": "s",
    "schedules_per_s": "schedules/s",
}


#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


class RunError(RuntimeError):
    """The workload process failed or printed no result."""


def _fixed_layout() -> None:
    """Pre-exec hook: give the worker the same address-space layout every run.

    With randomisation on, numpy-heavy units (study's Word2Vec) differed by
    ~10% between fresh processes on the same host state.  Where the kernel
    refuses, the worker runs with the default layout.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(workdir),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _worker(args: argparse.Namespace, workdir: Path, *, setup_only: bool,
            deadline: float) -> tuple[float, dict]:
    """Start one worker process; returns (its start time, its JSON result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(workdir), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - started),
                          preexec_fn=_fixed_layout)
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker printed no result:\n{proc.stderr[-4000:]}")
    return started, json.loads(lines[-1])


def run_workload(args: argparse.Namespace) -> dict:
    """The result object (correct, attempted, failed, metrics) of one workload run."""
    base = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups, raw_setups = [], []
        probes = 0 if args.trace else SETUP_PROBES  # setup_s is not a per-layer metric
        for i in range(probes + 1):
            started, result = _worker(args, base / f"run-{i}", setup_only=i < probes,
                                      deadline=deadline)
            raw_setups.append(result["ready"] - started)
            setups.append(raw_setups[-1] / result["setup_slowdown"])
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if args.trace:
        import layers  # per-layer names and units only; no program import

        values = result["per_layer"]
        metrics = {name: {"value": values[name], "unit": layers.PER_LAYER_UNITS[name]}
                   for name in layers.PER_LAYER_NAMES}
        _print_layer_table(args.workload, values, result)
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, metric in metrics.items():
            print(f"{args.workload:7s} {name:16s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{args.workload}: {result['units']} units, {result['attempted']} operations, "
          f"{result['failed']} failed, {result['fsyncs']} fsyncs counted")
    print(f"{args.workload}: raw unit walls "
          f"{' '.join(f'{w:.3f}' for w in result['unit_walls'])}s, host slowdowns "
          f"{' '.join(f'{s:.3f}' for s in result['unit_slowdowns'])}; raw set-ups "
          f"{' '.join(f'{s:.3f}' for s in raw_setups)}s")
    for problem in result["problems"]:
        print(f"CHECK FAILED [{args.workload}] {problem}")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _print_layer_table(workload: str, values: dict, result: dict) -> None:
    import layers

    wall = result["traced_wall_s"]
    print(f"{workload}: self time by layer over a whole traced unit (median {wall:.3f}s, "
          f"checks and warm re-runs included; self times add up to it within 5%), "
          f"tracing overhead {values['tracing.overhead_ratio']:+.1%}")
    for name in layers.PER_LAYER_NAMES:
        value, unit = values[name], layers.PER_LAYER_UNITS[name]
        share = f"{value / wall:6.1%}" if unit == "s" and wall else ""
        print(f"  {name:38s} {value:14.4f} {unit:6s} {share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except (RunError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
