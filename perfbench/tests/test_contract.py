"""BENCHMARK.json, the metric names and the run's output shape."""

import json
import re
from pathlib import Path

import pytest

import layers
import run
from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def all_metric_names():
    return [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]


@pytest.mark.parametrize("name", all_metric_names() + layers.PER_LAYER_NAMES
                         + list(run.END_TO_END_UNITS))
def test_metric_names_are_well_formed(name):
    assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    assert NAME.fullmatch(name)


def test_names_are_unique_and_match_the_code():
    names = all_metric_names()
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS


def test_benchmark_file_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCH["run_seconds"] <= 60
    for path in BENCH["paths"]:
        assert (ROOT / path).is_dir()


def test_unit_metrics_report_every_per_layer_metric():
    tracer = Tracer()
    tracer.spans = [
        Span("root", 0.0, 3.0),
        Span("stream.self", 0.0, 2.0, parent=0,
             hot_s={"stream.parse": 0.5}, hot_n={"stream.parse": 10}),
        Span("staticanalysis.load", 2.0, 3.0, parent=0, phase="cold"),
    ]
    metrics = layers.unit_metrics(tracer, {"stream.records": 10})
    assert set(metrics) == set(layers.PER_LAYER_NAMES)
    assert metrics["stream.self_s"] == pytest.approx(1.5)
    assert metrics["stream.parse_s"] == pytest.approx(0.5)
    assert metrics["staticanalysis.cold.load_s"] == pytest.approx(1.0)
    assert metrics["stream.records"] == 10
    with pytest.raises(KeyError, match="unknown metric"):
        layers.unit_metrics(tracer, {"stream.nonsense": 1})
