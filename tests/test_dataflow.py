"""Interprocedural dataflow: summaries, call graph, taint, detectors,
caching, parallel determinism, and the baseline schema migration."""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StaticAnalysisError
from repro.observability.spans import spans_to_jsonl
from repro.staticanalysis import (
    AnalysisReport,
    Finding,
    Severity,
    load_baseline,
    load_module,
    run_interprocedural,
    to_json,
    write_baseline,
)
from repro.staticanalysis.dataflow import (
    DEFAULT_TAINT_SPEC,
    CallSite,
    build_call_graph,
    dataflow_detector_ids,
    summarize_source,
)
from repro.taxonomy import BugType, RootCause

FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "dataflow"

_DATAFLOW_IDS = sorted(dataflow_detector_ids())


def _fixture(detector_id: str, kind: str) -> Path:
    stem = detector_id.removeprefix("dataflow.").replace("-", "_")
    path = FIXTURES / f"{stem}_{kind}.py"
    assert path.exists(), f"missing fixture {path}"
    return path


def _run(*paths: Path, root: Path = FIXTURES, jobs: int = 1):
    return run_interprocedural(
        list(paths), root=root, cache_root=None, jobs=jobs
    )


def _summaries_for(root: Path, *names: str):
    return [summarize_source(load_module(root / name)) for name in names]


# -- fixture pairs -------------------------------------------------------------


class TestDataflowFixturePairs:
    @pytest.mark.parametrize("detector_id", _DATAFLOW_IDS)
    def test_positive_fixture_fires(self, detector_id):
        result = _run(_fixture(detector_id, "pos"))
        hits = [
            f for f in result.report.active if f.detector == detector_id
        ]
        assert hits, f"{detector_id} silent on its positive fixture"
        for finding in hits:
            assert finding.line > 0
            assert finding.severity in (Severity.ERROR, Severity.WARNING)

    @pytest.mark.parametrize("detector_id", _DATAFLOW_IDS)
    def test_negative_fixture_silent(self, detector_id):
        result = _run(_fixture(detector_id, "neg"))
        hits = [
            f for f in result.report.active if f.detector == detector_id
        ]
        assert not hits, f"{detector_id} false positive(s): {hits}"

    def test_every_detector_has_both_fixtures(self):
        for detector_id in _DATAFLOW_IDS:
            _fixture(detector_id, "pos")
            _fixture(detector_id, "neg")

    def test_findings_carry_taxonomy_tags(self):
        paths = [_fixture(d, "pos") for d in _DATAFLOW_IDS]
        result = _run(*paths)
        seen = {f.detector for f in result.report.active}
        assert seen == set(_DATAFLOW_IDS)
        for finding in result.report.active:
            assert isinstance(finding.bug_type, BugType)
            assert isinstance(finding.root_cause, RootCause)

    def test_inline_disable_suppresses(self, tmp_path):
        source = _fixture("dataflow.wall-clock-taint", "pos").read_text(
            encoding="utf-8"
        )
        patched = source.replace(
            "return hashlib.sha256(",
            "return hashlib.sha256(  "
            "# sdnlint: disable=dataflow.wall-clock-taint\n        ",
        )
        target = tmp_path / "suppressed.py"
        target.write_text(patched, encoding="utf-8")
        result = _run(target, root=tmp_path)
        assert not [
            f
            for f in result.report.active
            if f.detector == "dataflow.wall-clock-taint"
        ]


# -- call graph / summary units ------------------------------------------------


class TestCallGraph:
    def test_direct_recursion_terminates_and_resolves(self, tmp_path):
        (tmp_path / "rec.py").write_text(textwrap.dedent("""\
            def fact(n):
                if n <= 1:
                    return 1
                return n * fact(n - 1)
            """))
        result = _run(tmp_path / "rec.py", root=tmp_path)
        targets = [
            target
            for _, target in result.graph.callsite_targets("rec.fact")
        ]
        assert "rec.fact" in targets

    def test_mutual_recursion_taint_fixpoint(self, tmp_path):
        (tmp_path / "cyc.py").write_text(textwrap.dedent("""\
            import time


            def ping(depth):
                if depth == 0:
                    return time.time()
                return pong(depth - 1)


            def pong(depth):
                return ping(depth)
            """))
        result = _run(tmp_path / "cyc.py", root=tmp_path)
        # Wall-clock return taint must flow around the ping<->pong cycle.
        assert "wall_clock" in result.taint.ret_taint["cyc.ping"]
        assert "wall_clock" in result.taint.ret_taint["cyc.pong"]

    def test_method_dispatch_via_constructor_tracking(self, tmp_path):
        (tmp_path / "disp.py").write_text(textwrap.dedent("""\
            class Worker:
                def run(self):
                    return self.step()

                def step(self):
                    return 1


            def drive():
                worker = Worker()
                return worker.run()
            """))
        result = _run(tmp_path / "disp.py", root=tmp_path)
        drive_targets = [
            t for _, t in result.graph.callsite_targets("disp.drive")
        ]
        assert "disp.Worker.run" in drive_targets
        run_targets = [
            t
            for _, t in result.graph.callsite_targets("disp.Worker.run")
        ]
        assert "disp.Worker.step" in run_targets

    def test_inherited_method_resolves_through_base(self, tmp_path):
        (tmp_path / "inh.py").write_text(textwrap.dedent("""\
            class Base:
                def step(self):
                    return 1


            class Child(Base):
                def run(self):
                    return self.step()
            """))
        result = _run(tmp_path / "inh.py", root=tmp_path)
        targets = [
            t for _, t in result.graph.callsite_targets("inh.Child.run")
        ]
        assert "inh.Base.step" in targets

    def test_decorated_function_still_summarized(self, tmp_path):
        (tmp_path / "deco.py").write_text(textwrap.dedent("""\
            import functools


            @functools.lru_cache(maxsize=None)
            def helper(x):
                return x + 1


            def drive(x):
                return helper(x)
            """))
        result = _run(tmp_path / "deco.py", root=tmp_path)
        assert "deco.helper" in result.graph.functions
        targets = [
            t for _, t in result.graph.callsite_targets("deco.drive")
        ]
        assert "deco.helper" in targets

    def test_cross_module_alias_resolution(self, tmp_path):
        (tmp_path / "mod_a.py").write_text(textwrap.dedent("""\
            def helper(x):
                return x + 1
            """))
        (tmp_path / "mod_b.py").write_text(textwrap.dedent("""\
            import mod_a


            def drive(x):
                return mod_a.helper(x)
            """))
        result = _run(
            tmp_path / "mod_a.py", tmp_path / "mod_b.py", root=tmp_path
        )
        targets = [
            t for _, t in result.graph.callsite_targets("mod_b.drive")
        ]
        assert "mod_a.helper" in targets

    def test_receiver_taint_flows_through_method_calls(self, tmp_path):
        (tmp_path / "recv.py").write_text(textwrap.dedent("""\
            import hashlib
            import time


            def fingerprint():
                stamp = str(time.time()).encode("utf-8")
                return hashlib.sha256(stamp).hexdigest()
            """))
        result = _run(tmp_path / "recv.py", root=tmp_path)
        hits = [
            f
            for f in result.report.active
            if f.detector == "dataflow.wall-clock-taint"
        ]
        assert hits, "receiver-carried taint (str(...).encode()) lost"


# -- determinism: order, jobs, spans ------------------------------------------


def _all_fixture_files() -> list[Path]:
    return sorted(FIXTURES.glob("*.py"))


def _matches_source_oracle(rule, site: CallSite) -> bool:
    """Source matching as a scan of the pattern tuple per call."""
    for pattern in rule.sources:
        if pattern.endswith("!noargs"):
            if (
                site.callee == pattern[: -len("!noargs")]
                and not site.arg_feeds
                and not site.kw_feeds
                and not site.all_feeds()
            ):
                return True
        elif site.callee == pattern:
            return True
    return False


class TestTaintSources:
    def test_split_patterns_match_the_pattern_scan(self):
        lint_fixtures = FIXTURES.parent
        sites = [
            site
            for path in sorted(lint_fixtures.rglob("*.py"))
            for function in summarize_source(load_module(path)).functions
            for site in function.callsites
        ]
        # Every source name, bare and with each kind of argument.
        shapes = [
            {},
            {"arg_feeds": ((),)},
            {"arg_feeds": (("param:0",),)},
            {"kw_feeds": (("seed", ()),)},
            {"recv_feeds": ("call:0",)},
        ]
        for rule in DEFAULT_TAINT_SPEC.rules:
            for pattern in rule.sources + ("random.Randomx", "os"):
                callee = pattern.removesuffix("!noargs")
                sites += [
                    CallSite(index=0, callee=callee, line=1, col=0, **shape)
                    for shape in shapes
                ]
        for rule in DEFAULT_TAINT_SPEC.rules:
            answers = set()
            for site in sites:
                answer = rule.matches_source(site)
                assert answer == _matches_source_oracle(rule, site), (
                    rule.kind, site,
                )
                answers.add(answer)
            assert answers == {True, False}


def _matches_sink_oracle(rule, callee: str) -> bool:
    """Sink matching as a scan of the pattern tuple per call."""
    for pattern in rule.sinks:
        if pattern.startswith("."):
            if callee.endswith(pattern) or callee == pattern[1:]:
                return True
        elif callee == pattern or callee.endswith("." + pattern):
            return True
    return False


class TestTaintSinks:
    def test_split_patterns_match_the_pattern_scan(self):
        package = Path(__file__).parent.parent / "src" / "repro"
        callees = {
            site.callee
            for root in (FIXTURES.parent, package)
            for path in sorted(root.rglob("*.py"))
            for function in summarize_source(load_module(path)).functions
            for site in function.callsites
        }
        # Every sink pattern as a callee, bare, behind receivers, and with
        # near-miss prefixes and suffixes.
        for rule in DEFAULT_TAINT_SPEC.rules:
            for pattern in rule.sinks:
                name = pattern.removeprefix(".")
                callees |= {
                    name, f"self.{name}", f"a.b.{name}", f"{name}x", f"x{name}",
                    f"a.x{name}", f"{name}.x", name.rpartition(".")[2],
                }
        for rule in DEFAULT_TAINT_SPEC.rules:
            answers = set()
            for callee in sorted(callees):
                answer = rule.matches_sink(callee)
                assert answer == _matches_sink_oracle(rule, callee), (
                    rule.kind, callee,
                )
                answers.add(answer)
            assert answers == {True, False}


class TestDeterminism:
    def test_jobs_1_vs_4_byte_identical(self):
        one = _run(FIXTURES, jobs=1)
        four = _run(FIXTURES, jobs=4)
        assert to_json(one.report) == to_json(four.report)

    def test_span_tree_deterministic_at_jobs_4(self, tmp_path):
        caches = [tmp_path / "cache-a", tmp_path / "cache-b"]
        trees = []
        for cache_root in caches:
            result = run_interprocedural(
                [FIXTURES], root=FIXTURES, cache_root=cache_root, jobs=4
            )
            trees.append(spans_to_jsonl(result.spans))
        assert trees[0] == trees[1]
        names = [
            json.loads(line)["name"] for line in trees[0].splitlines()
        ]
        assert any(name.startswith("worker-") for name in names)

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(_all_fixture_files()))
    def test_report_is_order_independent(self, shuffled):
        result = run_interprocedural(
            shuffled, root=FIXTURES, cache_root=None, jobs=1
        )
        canonical = _run(*_all_fixture_files())
        assert to_json(result.report) == to_json(canonical.report)

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(_all_fixture_files()))
    def test_call_graph_is_order_independent(self, shuffled):
        summaries = [
            summarize_source(load_module(path)) for path in shuffled
        ]
        graph = build_call_graph(summaries)
        expected = build_call_graph(
            [
                summarize_source(load_module(path))
                for path in _all_fixture_files()
            ]
        )
        assert graph.sorted_functions() == expected.sorted_functions()
        for qualname in expected.sorted_functions():
            assert [
                t for _, t in graph.callsite_targets(qualname)
            ] == [t for _, t in expected.callsite_targets(qualname)]


# -- summary cache -------------------------------------------------------------


class TestSummaryCache:
    def _workspace(self, tmp_path: Path) -> Path:
        work = tmp_path / "work"
        work.mkdir()
        for path in _all_fixture_files():
            shutil.copy(path, work / path.name)
        return work

    def test_warm_run_hits_everything_and_matches_cold(self, tmp_path):
        work = self._workspace(tmp_path)
        cache = tmp_path / "cache"
        cold = run_interprocedural([work], root=work, cache_root=cache)
        warm = run_interprocedural([work], root=work, cache_root=cache)
        assert cold.stats["cache_misses"] == cold.stats["modules"]
        assert warm.stats["cache_hits"] == warm.stats["modules"]
        assert warm.stats["cache_misses"] == 0
        assert to_json(cold.report) == to_json(warm.report)

    def test_single_edit_invalidates_exactly_one_module(self, tmp_path):
        work = self._workspace(tmp_path)
        cache = tmp_path / "cache"
        run_interprocedural([work], root=work, cache_root=cache)
        target = work / "escaping_handle_pos.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        third = run_interprocedural([work], root=work, cache_root=cache)
        assert third.stats["cache_misses"] == 1
        assert third.stats["cache_hits"] == third.stats["modules"] - 1

    def test_moved_checkout_reuses_summaries(self, tmp_path):
        cache = tmp_path / "cache"
        first = self._workspace(tmp_path)
        run_interprocedural([first], root=first, cache_root=cache)
        moved = tmp_path / "moved"
        shutil.move(first, moved)
        warm = run_interprocedural([moved], root=moved, cache_root=cache)
        assert warm.stats["cache_misses"] == 0
        # Findings must point at the new location, not the cached one.
        assert all(
            not f.path.startswith(str(tmp_path / "work"))
            for f in warm.report.findings
        )


# -- baseline schema migration -------------------------------------------------


def _entry(detector: str = "wall-clock", line: int = 3) -> dict:
    return {"detector": detector, "path": "pkg/mod.py", "line": line}


class TestBaselineMigration:
    def test_unversioned_file_still_loads(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"entries": [_entry()]}))
        assert load_baseline(path) == {("wall-clock", "pkg/mod.py", 3)}

    def test_v1_file_still_loads(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": [_entry()]}))
        assert load_baseline(path) == {("wall-clock", "pkg/mod.py", 3)}

    def test_legacy_file_rejects_namespaced_ids(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {"version": 1,
                 "entries": [_entry("dataflow.wall-clock-taint")]}
            )
        )
        with pytest.raises(StaticAnalysisError, match="namespaced"):
            load_baseline(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(StaticAnalysisError, match="version"):
            load_baseline(path)

    def test_write_migrates_to_v2_with_families(self, tmp_path):
        findings = [
            Finding(
                detector="dataflow.wall-clock-taint",
                message="m",
                path="pkg/mod.py",
                line=3,
                col=0,
                severity=Severity.ERROR,
                bug_type=BugType.NON_DETERMINISTIC,
                root_cause=RootCause.ECOSYSTEM_SYSTEM_CALL,
            ),
            Finding(
                detector="wall-clock",
                message="m",
                path="pkg/mod.py",
                line=9,
                col=0,
                severity=Severity.WARNING,
                bug_type=BugType.NON_DETERMINISTIC,
                root_cause=RootCause.ECOSYSTEM_SYSTEM_CALL,
            ),
        ]
        report = AnalysisReport(root=".", findings=findings)
        path = tmp_path / "baseline.json"
        assert write_baseline(report, path) == 2
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        assert payload["families"] == ["", "dataflow"]
        assert load_baseline(path) == {
            ("dataflow.wall-clock-taint", "pkg/mod.py", 3),
            ("wall-clock", "pkg/mod.py", 9),
        }
