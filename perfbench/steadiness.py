"""Steadiness evidence: two interleaved sets of runs of the same code.

    python3 perfbench/steadiness.py [--workloads study ingest ...]
        [--first-seed 0] [--seeds 10] [--out perfbench/steadiness.json]

For each seed, every workload runs once per set, the sets alternating, so
both sets see the same host drift.  For every end-to-end metric the script
reports each set's median and quartile spread ((q3 - q1) / median, from
``statistics.quantiles(values, n=4)``) and how far the second set's median
moved from the first's, in the metric's worse direction, against the bound
in ``BENCHMARK.json``.  Results are saved after every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_drift(first: list[float], second: list[float], better: str) -> float:
    """How much worse the second median is than the first (negative: better)."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def summarise(runs: list[dict], bench: dict) -> dict:
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            by_set = [
                [r["metrics"][name] for r in runs if r["workload"] == workload and r["set"] == s]
                for s in range(SETS)
            ]
            if any(len(values) < 2 for values in by_set):
                continue
            rows[name] = {
                "bound": bound,
                "medians": [statistics.median(v) for v in by_set],
                "spreads": [spread(v) for v in by_set],
                "drift": worse_drift(by_set[0], by_set[1], metric["better"]),
            }
        out[workload] = rows
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "steadiness.json")
    args = parser.parse_args(argv)

    runs: list[dict] = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            for set_index in range(SETS):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                started = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                elapsed = time.perf_counter() - started
                if proc.returncode != 0:
                    print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                runs.append({
                    "workload": workload, "seed": seed, "set": set_index,
                    "run_s": elapsed, "correct": result["correct"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "raw": next(line for line in lines if "raw unit walls" in line),
                })
                print(f"{workload:7s} seed {seed:2d} set {set_index} {elapsed:6.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in sorted(result["metrics"].items())),
                      flush=True)
                summary = summarise(runs, bench)
                args.out.write_text(json.dumps(
                    {"run_seconds": bench["run_seconds"], "summary": summary, "runs": runs},
                    indent=1, sort_keys=True) + "\n")

    ok = True
    for workload, rows in summarise(runs, bench).items():
        for name, row in rows.items():
            steady = all(s <= row["bound"] / 3 for s in row["spreads"]) or name == "setup_s"
            close = row["drift"] <= row["bound"]
            ok &= steady and close
            print(f"{workload:7s} {name:16s} bound {row['bound']:.2f} "
                  f"spreads {' '.join(f'{s:.3f}' for s in row['spreads'])} "
                  f"drift {row['drift']:+.3f} {'ok' if steady and close else 'NOISY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
