"""Output checks fail the run loudly; so does a wrong frozen-tree digest."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import snapshot
import worker
from workloads import Ingest, Study, UnitResult

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
REFERENCES = json.loads((HERE / "references.json").read_text())


def ingest_unit(digest="a2cb"):
    return UnitResult(
        start=0.0, cold_end=1.0, end=1.1, warm_times=[0.1], records=10, executions=1,
        attempted=10,
        outputs={"counters": {"consumed": 10, "applied": 9, "deduped": 1,
                              "dead_lettered": 0},
                 "analytics_digest": digest},
    )


def test_matching_reference_passes(tmp_path):
    problems, failed = worker._checks(Ingest(0, tmp_path), [ingest_unit()] * 2,
                                      {"analytics_digest": "a2cb"})
    assert (problems, failed) == ([], 0)


def test_wrong_reference_value_fails_every_unit(tmp_path):
    problems, failed = worker._checks(Ingest(0, tmp_path), [ingest_unit()] * 2,
                                      {"analytics_digest": "wrong"})
    assert len(problems) == 2 and "analytics_digest" in problems[0]
    assert failed == 20


def test_references_apply_only_at_the_default_seed(tmp_path):
    problems, _ = worker._checks(Ingest(3, tmp_path), [ingest_unit()] * 2,
                                 {"analytics_digest": "wrong"})
    assert problems == []


def test_units_that_disagree_fail(tmp_path):
    problems, failed = worker._checks(Ingest(3, tmp_path),
                                      [ingest_unit(), ingest_unit("other")], {})
    assert problems == ["unit 1: unit 1 outputs differ from unit 0"]
    assert failed == 10


def test_study_accuracy_more_than_one_point_off_fails(tmp_path):
    reference = REFERENCES["study"]
    outputs = {"accuracies": dict(reference["accuracies"]),
               "trigger_shares": {"configuration": 0.6, "network_events": 0.1}}
    study = Study(0, tmp_path)
    assert study.reference_problems(outputs, reference) == []
    outputs["accuracies"]["fix"] = reference["accuracies"]["fix"] + 0.011
    assert "fix accuracy" in study.reference_problems(outputs, reference)[0]


def test_dominant_trigger_is_checked_only_at_the_default_seed(tmp_path):
    reference = REFERENCES["study"]
    outputs = {"accuracies": dict(reference["accuracies"]),
               "trigger_shares": {"configuration": 0.335, "external_calls": 0.347}}
    unit = UnitResult(start=0.0, cold_end=1.0, end=1.1, warm_times=[0.1], records=10,
                      executions=1, attempted=4, outputs=outputs)
    problems, failed = worker._checks(Study(0, tmp_path), [unit] * 2, reference)
    assert "dominant trigger external_calls" in problems[0] and failed == 8
    assert worker._checks(Study(24, tmp_path), [unit] * 2, reference) == ([], 0)


def test_run_exits_non_zero_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(run, "run_workload", lambda args: {
        "correct": False, "attempted": 4, "failed": 4, "metrics": {}})
    assert run.main(["--workload", "fuzz"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_wrong_tree_digest_fails_loudly(tmp_path):
    with pytest.raises(snapshot.SnapshotError, match="digest mismatch"):
        snapshot.materialise(tmp_path / "bad", expect="0" * 64)


def test_frozen_tree_and_edit(tmp_path):
    root = snapshot.materialise(tmp_path / "tree")
    assert len(list((root / "src" / "repro").rglob("*.py"))) == 179
    edit = snapshot.Edit(root)
    before = [p.read_bytes() for p in edit.paths]
    edit.apply()
    assert all(p.read_text().endswith(snapshot.EDIT) for p in edit.paths)
    edit.revert()
    assert [p.read_bytes() for p in edit.paths] == before
    assert snapshot.tree_digest(root) == snapshot.TREE_DIGEST


def test_bare_benchmark_directory_exits_non_zero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
