"""sdnlint self-scan: the paper's taxonomy as enforceable checks.

The static analyzer turns Table I root causes into AST detectors and runs
them over this repo's own source.  The bench reports scan throughput plus
the finding census, and extracts a CodeModel so the Fig-8 smell detectors
(SS VI-A) run over real Python instead of only the synthetic ONOS models.
"""

from __future__ import annotations

from pathlib import Path

from conftest import once

import repro
from repro.reporting import ascii_table
from repro.smells import SmellKind, analyze
from repro.staticanalysis import Severity, run_lint
from repro.staticanalysis.extract import extract_code_model

PACKAGE_ROOT = Path(repro.__file__).parent


def test_bench_self_scan(benchmark):
    report = once(benchmark, run_lint, [PACKAGE_ROOT], root=PACKAGE_ROOT.parents[1])
    rows = [[det, str(n)] for det, n in report.counts_by_detector().items()]
    print()
    print(ascii_table(
        ["detector", "findings"], rows or [["-", "0"]],
        title=f"sdnlint self-scan: {report.modules_scanned} modules",
    ))
    by_cause = report.counts_by_root_cause()
    print("by Table-I root cause: "
          + (", ".join(f"{c}={n}" for c, n in by_cause.items()) or "none"))
    assert report.modules_scanned > 100
    errors = [f for f in report.active if f.severity >= Severity.ERROR]
    assert not errors, [f.location for f in errors]


def test_bench_extract_and_smell(benchmark):
    def run():
        model = extract_code_model(PACKAGE_ROOT, name="repro")
        return model, analyze(model)

    model, report = once(benchmark, run)
    counts = report.counts()
    rows = [[kind.value, str(counts[kind])] for kind in SmellKind]
    print()
    print(ascii_table(
        ["smell", "count"], rows,
        title=(f"Fig-8 smells over src/repro: {len(model.classes)} classes, "
               f"{len(model.packages)} packages"),
    ))
    assert len(model.classes) > 200
    assert report.instances, "smells must be non-empty over src/repro"
    assert report.count(SmellKind.GOD_COMPONENT) >= 1
