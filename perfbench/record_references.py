"""Record the reference outputs the benchmark checks at ``--seed 0``.

    PYTHONHASHSEED=0 python3 perfbench/record_references.py [workload ...]

Only a change meant to alter these outputs should re-record them, in a
change of its own.  Study accuracies are checked within 1 point, so they
are stored as measured; the other workloads are checked for equality.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, NullTracer  # noqa: E402

#: Outputs compared across the units of a run but not stored as references.
RUN_ONLY = {"relint_dataflow", "relint_graph", "fingerprint", "weights", "topics"}


def record(name: str, workdir: Path) -> dict:
    workload = WORKLOADS[name](0, workdir)
    workload.setup()
    result = workload.unit(0, NullTracer())
    if result.problems:
        raise SystemExit(f"{name}: invariant violations: {result.problems}")
    outputs = {k: v for k, v in result.outputs.items() if k not in RUN_ONLY}
    if name == "study":
        shares = outputs["trigger_shares"]
        return {"accuracies": outputs["accuracies"],
                "dominant_trigger": max(shares, key=shares.get)}
    return outputs


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("set PYTHONHASHSEED=0, as run.py does", file=sys.stderr)
        return 2
    path = HERE / "references.json"
    references = json.loads(path.read_text())
    workdir = ROOT / ".bench_run" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in argv or list(WORKLOADS):
            references[name] = record(name, workdir / name)
            print(f"recorded {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
