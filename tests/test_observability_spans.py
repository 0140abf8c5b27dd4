"""Span derivation from real PR-4 journals, plus export determinism.

The contract under test: the journal *is* the trace.  Deriving spans
from a journal file must give the same answer whether events are fed
live through the ``on_event`` hook or replayed offline; a kill-injected
pipeline journal must yield bit-identical attempt-0 spans before and
after the resume appends to it, with the crash window flagged as
``truncated``; and two same-seed serving runs must export byte-identical
metrics JSONL.
"""

from __future__ import annotations

import json
import shutil
import signal

import pytest

from repro.errors import ObservabilityError
from repro.observability.spans import (
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TRUNCATED,
    SpanBuilder,
    Tracer,
    spans_from_journal,
    spans_to_jsonl,
)
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    EVENT_SKIP,
    RunJournal,
)


# -- Tracer (manual API) -------------------------------------------------------
def test_tracer_parent_links_and_determinism():
    tracer = Tracer("t1")
    root = tracer.start("run", kind="run")
    child = tracer.start("tfidf", parent_id=root.span_id)
    tracer.end(child)
    tracer.end(root)
    spans = tracer.finished()
    assert [s.name for s in spans] == ["run", "tfidf"]
    assert spans[1].parent_id == spans[0].span_id
    assert spans[0].span_id == "t1:000000"
    assert all(s.status == STATUS_OK for s in spans)
    assert spans[1].duration == 1

    # Same sequence of calls -> same span ids and ticks.
    again = Tracer("t1")
    r2 = again.start("run", kind="run")
    c2 = again.start("tfidf", parent_id=r2.span_id)
    again.end(c2)
    again.end(r2)
    assert again.finished() == spans


def test_tracer_end_of_unopened_span_raises():
    tracer = Tracer("t")
    span = tracer.start("x")
    tracer.end(span)
    with pytest.raises(ObservabilityError):
        tracer.end(span)


# -- SpanBuilder vs offline replay ---------------------------------------------
def _journaled_run(path, run_id, *, builder=None):
    """Write a small complete run, optionally feeding a live builder."""
    on_event = builder.feed if builder is not None else None
    journal = RunJournal(path, run_id, on_event=on_event)
    journal.append(EVENT_RUN_START, meta={"seed": 0})
    journal.append(EVENT_BEGIN, stage="corpus", key="k1")
    journal.append(EVENT_COMMIT, stage="corpus", key="k1", digest="d1")
    journal.append(EVENT_BEGIN, stage="tfidf", key="k2")
    journal.append(EVENT_COMMIT, stage="tfidf", key="k2", digest="d2")
    journal.append(EVENT_SKIP, stage="warm", key="k3")
    journal.append(EVENT_RUN_END, meta={"stages": 3})
    journal.close()
    return journal


def test_live_hook_equals_offline_replay(tmp_path):
    builder = SpanBuilder("run-a")
    path = tmp_path / "run-a.jsonl"
    _journaled_run(path, "run-a", builder=builder)
    live = builder.finish()
    offline = spans_from_journal(path)
    assert live == offline
    assert spans_to_jsonl(live) == spans_to_jsonl(offline)


def test_span_mapping_semantics(tmp_path):
    path = tmp_path / "run-b.jsonl"
    _journaled_run(path, "run-b")
    spans = spans_from_journal(path)
    by_name = {s.name: s for s in spans}
    root = by_name["run"]
    assert root.kind == "run" and root.status == STATUS_OK
    assert root.parent_id is None and root.attempt == 0
    assert root.attrs["seed"] == 0 and root.attrs["stages"] == 3
    assert by_name["corpus"].status == STATUS_OK
    assert by_name["corpus"].parent_id == root.span_id
    assert by_name["corpus"].attrs == {"key": "k1", "digest": "d1"}
    # skip with no begin: instantaneous skipped span.
    warm = by_name["warm"]
    assert warm.status == STATUS_SKIPPED and warm.duration == 0
    # trace id defaults to the journal's run id.
    assert all(s.trace_id == "run-b" for s in spans)
    children = {s.name for s in spans if s.parent_id == root.span_id}
    assert children == {"corpus", "tfidf", "warm"}


def test_torn_tail_truncates_open_spans(tmp_path):
    path = tmp_path / "run-c.jsonl"
    journal = RunJournal(path, "run-c")
    journal.append(EVENT_RUN_START)
    journal.append(EVENT_BEGIN, stage="corpus")
    journal.append(EVENT_COMMIT, stage="corpus")
    journal.append(EVENT_BEGIN, stage="nmf")
    journal.close()  # process dies here: nmf never commits
    spans = spans_from_journal(path)
    by_name = {s.name: s for s in spans}
    assert by_name["corpus"].status == STATUS_OK
    assert by_name["nmf"].status == STATUS_TRUNCATED
    assert by_name["nmf"].end is None and by_name["nmf"].duration is None
    assert by_name["run"].status == STATUS_TRUNCATED


def test_resume_attempt_closes_prior_crash_window(tmp_path):
    path = tmp_path / "run-d.jsonl"
    journal = RunJournal(path, "run-d")
    journal.append(EVENT_RUN_START)
    journal.append(EVENT_BEGIN, stage="corpus")
    journal.append(EVENT_COMMIT, stage="corpus")
    journal.append(EVENT_BEGIN, stage="nmf")
    journal.close()
    pre_crash = spans_from_journal(path)

    journal = RunJournal(path, "run-d")
    journal.append(EVENT_RUN_RESUME, meta={"resumed_from": 3})
    journal.append(EVENT_SKIP, stage="corpus")
    journal.append(EVENT_BEGIN, stage="nmf")
    journal.append(EVENT_COMMIT, stage="nmf")
    journal.append(EVENT_RUN_END)
    journal.close()
    spans = spans_from_journal(path)

    attempts = {s.attempt for s in spans}
    assert attempts == {0, 1}
    a0 = [s for s in spans if s.attempt == 0]
    # Attempt-0 spans are bit-identical to the pre-resume derivation.
    assert a0 == pre_crash
    a1 = {s.name: s for s in spans if s.attempt == 1}
    assert a1["run"].status == STATUS_OK
    assert a1["corpus"].status == STATUS_SKIPPED  # resume re-assertion
    assert a1["nmf"].status == STATUS_OK


# -- kill-injected pipeline journals -------------------------------------------
KILL_AFTER = 5


@pytest.fixture(scope="module")
def killed_and_resumed(tmp_path_factory):
    """One kill-injected run: journal snapshot pre-resume, then resumed."""
    from repro.recovery.harness import journal_path, run_target, spawn_killed
    from repro.recovery.smoke import PIPELINE_CONFIG

    run_dir = tmp_path_factory.mktemp("span-harness")
    killed = spawn_killed("pipeline", PIPELINE_CONFIG, run_dir, KILL_AFTER)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    journal = journal_path("pipeline", PIPELINE_CONFIG, run_dir)
    snapshot = journal.with_suffix(".pre-resume")
    shutil.copy2(journal, snapshot)
    result = run_target("pipeline", PIPELINE_CONFIG, run_dir, resume=True)
    return journal, snapshot, result


def test_killed_journal_spans_flag_the_crash_window(killed_and_resumed):
    _journal, snapshot, _result = killed_and_resumed
    spans = spans_from_journal(snapshot)
    truncated = [s for s in spans if s.status == STATUS_TRUNCATED]
    # The root is always truncated (no run-end made it to disk); the
    # in-flight stage at kill@5 is too.
    assert any(s.kind == "run" for s in truncated)
    assert all(s.end is None for s in truncated)
    assert all(s.attempt == 0 for s in spans)


def test_spans_bit_identical_across_resume(killed_and_resumed):
    journal, snapshot, result = killed_and_resumed
    pre = spans_from_journal(snapshot)
    post = spans_from_journal(journal)
    a0 = [s for s in post if s.attempt == 0]
    assert a0 == pre
    assert spans_to_jsonl(a0) == spans_to_jsonl(pre)
    # The resume attempt completes the run: its root closed ok, every
    # journal-skipped stage shows as a skipped span.
    a1 = {s.name: s for s in post if s.attempt == 1}
    assert a1["run"].status == STATUS_OK
    for stage in result.skipped_stages:
        assert a1[stage].status == STATUS_SKIPPED
    assert not [s for s in post if s.attempt == 1 and s.status == STATUS_TRUNCATED]


def test_reference_run_derives_a_clean_tree(tmp_path):
    """An uninterrupted journaled pipeline run: all spans ok, one root."""
    from repro.parallel import ArtifactCache
    from repro.pipeline.scaling import run_pipeline

    cache = ArtifactCache(tmp_path / "cache")
    run_pipeline(
        seed=0, jobs=1, dimensions=("bug_type",), n_topics=2,
        nmf_restarts=2, cache=cache, run_id="ref",
    )
    journal = tmp_path / "cache" / ".journal" / "ref.jsonl"
    spans = spans_from_journal(journal)
    roots = [s for s in spans if s.kind == "run"]
    assert len(roots) == 1 and roots[0].status == STATUS_OK
    stages = [s for s in spans if s.kind == "stage"]
    # corpus, tfidf, nmf, one classifier stage.
    assert len(stages) == 4
    assert all(s.status == STATUS_OK for s in stages)
    assert all(s.parent_id == roots[0].span_id for s in stages)


# -- byte-identical metrics across same-seed serving runs ----------------------
def test_same_seed_serving_runs_export_identical_metrics():
    from repro.serving import StubBackend, TrafficConfig, run_arm

    traffic = TrafficConfig(seed=7, duration=20.0, base_rate=5.0,
                            burst_rate=25.0, bursts=2, burst_length=2.0)
    first, _ = run_arm(
        name="m1", hardened=True, backend=StubBackend(), traffic=traffic
    )
    second, _ = run_arm(
        name="m2", hardened=True, backend=StubBackend(), traffic=traffic
    )
    assert first.metrics_jsonl
    assert first.metrics_jsonl == second.metrics_jsonl
    # And the export is valid, reloadable JSONL.
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry.from_jsonl(first.metrics_jsonl)
    assert registry.value("serving_shed_total") == first.stats["shed"]


# -- CLI smokes ----------------------------------------------------------------
def test_cli_metrics_renders_a_run_dir(tmp_path, capsys):
    from repro.__main__ import main

    run_dir = tmp_path / "run"
    _journaled_run(run_dir / ".journal" / "demo.jsonl", "demo")
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("demo_total", "Demo").inc(3)
    (run_dir / "demo_metrics.jsonl").write_text(registry.export_jsonl())

    assert main(["metrics", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "corpus" in out and "demo_total" in out

    out_file = tmp_path / "report.json"
    assert main([
        "metrics", "--run-dir", str(run_dir),
        "--format", "json", "--output", str(out_file),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(out_file.read_text())
    assert payload["traces"] and payload["metrics"]


def test_collect_run_skips_a_journal_with_a_non_utf8_byte(tmp_path):
    from repro.observability.report import collect_run

    run_dir = tmp_path / "run"
    good = run_dir / ".journal" / "good.jsonl"
    bad = run_dir / ".journal" / "bad.jsonl"
    _journaled_run(good, "good")
    _journaled_run(bad, "bad")
    data = bytearray(bad.read_bytes())
    data[30] = 0xFF
    bad.write_bytes(bytes(data))

    report = collect_run(run_dir)
    assert list(report.traces) == [good]
    assert [path for path, _ in report.skipped] == [bad]
    assert "bad.jsonl:1: corrupt journal record" in report.skipped[0][1]


def test_cli_trajectory_check_rejects_regression(tmp_path, capsys):
    from repro.__main__ import main
    from repro.observability.trajectory import TrajectoryStore

    baseline = tmp_path / "base.json"
    candidate = tmp_path / "cand.json"
    entry = {
        "bench": "serving_overload_ab",
        "goodput_hardened": 10.0,
        "goodput_ratio": 5.0,
        "p99_hardened": 20.0,
    }
    TrajectoryStore(baseline).record(entry)
    TrajectoryStore(candidate).record(
        {**entry, "goodput_hardened": 10.0 * 0.75}
    )
    assert main([
        "trajectory", "--check",
        "--file", str(baseline), "--candidate", str(candidate),
    ]) == 2
    err = capsys.readouterr().err
    assert "goodput_hardened" in err and "REGRESSION" in err

    # The same baseline accepts itself.
    assert main(["trajectory", "--check", "--file", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "trajectory check passed (3 gate(s) evaluated)" in out
