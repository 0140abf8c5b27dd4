"""sdnlint: detectors, baseline, reporters, extraction, and the self-scan."""

from __future__ import annotations

import ast
import gc
import json
import textwrap
from collections import Counter, deque
from pathlib import Path

import pytest

import repro
from repro.errors import StaticAnalysisError
from repro.smells import SmellKind, analyze
from repro.staticanalysis import (
    AnalysisReport,
    Analyzer,
    Finding,
    ModuleInfo,
    Severity,
    apply_baseline,
    detector_ids,
    load_baseline,
    load_module,
    run_interprocedural,
    run_lint,
    to_json,
    to_text,
    write_baseline,
)
from repro.staticanalysis.checks import concurrency
from repro.staticanalysis.dataflow import engine as dataflow_engine
from repro.staticanalysis.dataflow import summaries
from repro.staticanalysis.extract import extract_code_model
from repro.staticanalysis.loader import iter_source_files, module_name_for
from repro.taxonomy import BugType, RootCause

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: detector id -> fixture basename stem.
_ALL_IDS = sorted(detector_ids())


def _fixture(detector_id: str, kind: str) -> Path:
    path = FIXTURES / f"{detector_id.replace('-', '_')}_{kind}.py"
    assert path.exists(), f"missing fixture {path}"
    return path


def _run_single(detector_id: str, *paths: Path):
    """A lint of ``paths`` that keeps only ``detector_id``'s findings."""
    report = run_lint(paths, root=FIXTURES)
    report.findings = [f for f in report.findings if f.detector == detector_id]
    return report


class TestFixturePairs:
    @pytest.mark.parametrize("detector_id", _ALL_IDS)
    def test_positive_fixture_fires(self, detector_id):
        report = _run_single(detector_id, _fixture(detector_id, "pos"))
        hits = [f for f in report.active if f.detector == detector_id]
        assert hits, f"{detector_id} silent on its positive fixture"
        for finding in hits:
            assert finding.line > 0
            assert finding.severity in (Severity.ERROR, Severity.WARNING)

    @pytest.mark.parametrize("detector_id", _ALL_IDS)
    def test_negative_fixture_silent(self, detector_id):
        report = _run_single(detector_id, _fixture(detector_id, "neg"))
        hits = [f for f in report.active if f.detector == detector_id]
        assert not hits, f"{detector_id} false positive(s): {hits}"

    def test_every_detector_has_both_fixtures(self):
        for detector_id in _ALL_IDS:
            _fixture(detector_id, "pos")
            _fixture(detector_id, "neg")


class TestLockOrderCycle:
    def test_cross_module_cycle(self, tmp_path):
        (tmp_path / "one.py").write_text(textwrap.dedent("""\
            import threading
            alpha_lock = threading.Lock()
            beta_lock = threading.Lock()

            def forward(work):
                with alpha_lock:
                    with beta_lock:
                        work()
            """))
        (tmp_path / "two.py").write_text(textwrap.dedent("""\
            import threading
            alpha_lock = threading.Lock()
            beta_lock = threading.Lock()

            def backward(work):
                with beta_lock:
                    with alpha_lock:
                        work()
            """))
        # Same-named module-level locks stay module-qualified, so these two
        # files alone do not share identities; a cycle needs shared locks.
        report = run_lint([tmp_path], root=tmp_path)
        assert not [f for f in report.active if f.detector == "lock-order-cycle"]

        (tmp_path / "three.py").write_text(textwrap.dedent("""\
            from one import alpha_lock, beta_lock

            def backward(work):
                with beta_lock:
                    with alpha_lock:
                        work()
            """))
        report = run_lint([tmp_path], root=tmp_path)
        hits = [f for f in report.active if f.detector == "lock-order-cycle"]
        assert hits
        assert "conflicting orders" in hits[0].message

    def test_multi_item_with_orders_left_to_right(self, tmp_path):
        (tmp_path / "abba.py").write_text(textwrap.dedent("""\
            import threading
            first_lock = threading.Lock()
            second_lock = threading.Lock()

            def one(work):
                with first_lock, second_lock:
                    work()

            def two(work):
                with second_lock, first_lock:
                    work()
            """))
        report = run_lint([tmp_path], root=tmp_path)
        assert [f for f in report.active if f.detector == "lock-order-cycle"]

    def test_three_lock_cycle(self, tmp_path):
        (tmp_path / "rotate.py").write_text(textwrap.dedent("""\
            import threading
            a_lock = threading.Lock()
            b_lock = threading.Lock()
            c_lock = threading.Lock()

            def first(work):
                with a_lock:
                    with c_lock:
                        work()

            def second(work):
                with c_lock:
                    with b_lock:
                        work()

            def third(work):
                with b_lock:
                    with a_lock:
                        work()
            """))
        report = run_lint([tmp_path], root=tmp_path)
        hits = [f for f in report.active if f.detector == "lock-order-cycle"]
        assert len(hits) == 1
        # The message names the cycle the code has, not the sorted locks.
        assert "rotate.a_lock -> rotate.c_lock -> rotate.b_lock -> rotate.a_lock" in (
            hits[0].message
        )
        # The dataflow detector leaves all-lexical cycles to this one.
        dataflow = run_interprocedural([tmp_path], root=tmp_path, cache_root=None)
        lock_ids = {"lock-order-cycle", "dataflow.cross-function-lock-cycle"}
        merged = report.findings + dataflow.report.findings
        assert len([f for f in merged if f.detector in lock_ids]) == 1


class TestSuppression:
    def test_inline_disable(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "import random\n"
            "a = random.random()  # sdnlint: disable=unseeded-random\n"
            "b = random.random()\n"
        )
        report = run_lint([src], root=tmp_path)
        lines = [f.line for f in report.active if f.detector == "unseeded-random"]
        assert lines == [3]

    def test_inline_disable_all(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "import random\n"
            "a = random.random()  # sdnlint: disable-all\n"
        )
        report = run_lint([src], root=tmp_path)
        assert not report.active


class TestBaseline:
    def test_round_trip_suppresses_exact_matches(self, tmp_path):
        report = _run_single("unseeded-random", _fixture("unseeded-random", "pos"))
        assert report.active
        baseline_path = tmp_path / "baseline.json"
        written = write_baseline(report, baseline_path)
        assert written == len(report.active)

        suppressed = apply_baseline(report, load_baseline(baseline_path))
        assert not suppressed.active
        assert len(suppressed.suppressed) == written
        # A shifted finding (new line) is NOT covered by the baseline.
        keys = load_baseline(baseline_path)
        moved = {(d, p, line + 1) for d, p, line in keys}
        still_active = apply_baseline(report, moved)
        assert len(still_active.active) == len(report.active)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(StaticAnalysisError):
            load_baseline(bad)

    def test_committed_baseline_matches_current_warnings(self):
        """The committed lint-baseline.json must stay in sync with the tree."""
        repo_root = Path(repro.__file__).resolve().parents[2]
        baseline_path = repo_root / "lint-baseline.json"
        assert baseline_path.exists()
        report = run_lint([Path(repro.__file__).parent], root=repo_root)
        report = apply_baseline(report, load_baseline(baseline_path))
        stale = [f for f in report.active if f.severity >= Severity.WARNING]
        assert not stale, f"unbaselined findings: {[f.location for f in stale]}"


class TestReporters:
    def test_text_report(self):
        report = _run_single("wall-clock", _fixture("wall-clock", "pos"))
        text = to_text(report)
        assert "wall_clock_pos.py" in text
        assert "error:" in text
        assert "root_cause=ecosystem_system_call" in text
        assert "module(s) scanned" in text

    def test_json_report(self):
        report = _run_single("bare-except", _fixture("bare-except", "pos"))
        payload = json.loads(to_json(report))
        assert payload["modules_scanned"] == 1
        (finding,) = payload["findings"]
        assert finding["detector"] == "bare-except"
        assert finding["severity"] == "error"
        assert finding["root_cause"] == "missing_logic"
        assert finding["bug_type"] == "deterministic"

    def test_syntax_error_is_analysis_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def (:\n")
        with pytest.raises(StaticAnalysisError):
            load_module(bad)


class TestSelfScan:
    """The repo gates itself: src/repro must stay clean at error severity."""

    def test_src_repro_has_no_errors(self):
        package_root = Path(repro.__file__).parent
        report = run_lint([package_root], root=package_root.parents[1])
        errors = [f for f in report.active if f.severity >= Severity.ERROR]
        assert not errors, "\n" + to_text(report)
        assert report.modules_scanned > 100


class TestExtraction:
    def test_recovery_model_is_stable(self):
        package = Path(repro.__file__).parent / "recovery"
        first = extract_code_model(package, name="repro.recovery")
        second = extract_code_model(package, name="repro.recovery")
        assert len(first.classes) == len(second.classes) == 10
        assert len(first.packages) == len(second.packages) == 1
        assert sorted(first.classes) == sorted(second.classes)
        assert "repro.recovery.journal.RunJournal" in first.classes

    def test_recovery_model_analyzes_cleanly(self):
        package = Path(repro.__file__).parent / "recovery"
        model = extract_code_model(package, name="repro.recovery")
        report = analyze(model)
        assert report.model_name == "repro.recovery"

    def test_full_repo_smells_non_empty(self):
        model = extract_code_model(Path(repro.__file__).parent, name="repro")
        report = analyze(model)
        assert report.instances, "Fig-8 smells empty over src/repro"
        assert report.count(SmellKind.GOD_COMPONENT) >= 1

    def test_kinds_filter_is_subset_of_full_report(self):
        model = extract_code_model(Path(repro.__file__).parent / "sdnsim")
        full = analyze(model)
        only_god = analyze(model, kinds=[SmellKind.GOD_COMPONENT])
        assert {i.kind for i in only_god.instances} <= {SmellKind.GOD_COMPONENT}
        assert only_god.count(SmellKind.GOD_COMPONENT) == full.count(
            SmellKind.GOD_COMPONENT
        )

    def test_extraction_resolves_supertypes(self):
        model = extract_code_model(Path(repro.__file__).parent / "staticanalysis")
        subtype = model.get_class(
            "repro.staticanalysis.checks.nondeterminism.WallClockDetector"
        )
        assert subtype.supertype == "repro.staticanalysis.checks.base.Detector"
        assert subtype.inherited_members_used  # overrides check_module


class TestAnalyzerContract:
    def test_detector_ids_are_unique(self):
        ids = [detector.id for detector in Analyzer().detectors]
        assert all(ids) and len(set(ids)) == len(ids)

    def test_findings_sorted_and_relative(self):
        report = run_lint([FIXTURES], root=FIXTURES)
        locations = [(f.path, f.line, f.detector) for f in report.findings]
        assert locations == sorted(locations)
        assert all(not Path(f.path).is_absolute() for f in report.findings)


def _finding(path="a.py", line=1, col=0, detector="wall-clock", *,
             severity=Severity.WARNING, root_cause=RootCause.CONCURRENCY):
    return Finding(
        detector=detector,
        message="m",
        path=path,
        line=line,
        col=col,
        severity=severity,
        bug_type=BugType.NON_DETERMINISTIC,
        root_cause=root_cause,
    )


class TestFindingModel:
    def test_severity_order(self):
        assert Severity.ERROR >= Severity.WARNING >= Severity.INFO
        assert not Severity.INFO >= Severity.WARNING
        assert [s.rank for s in Severity] == [0, 1, 2]

    def test_severity_does_not_compare_with_strings(self):
        with pytest.raises(TypeError):
            Severity.ERROR >= "warning"

    def test_suppress_returns_a_suppressed_copy(self):
        finding = _finding()
        suppressed = finding.suppress()
        assert suppressed.suppressed and not finding.suppressed
        assert suppressed.location == finding.location == "a.py:1:0"

    def test_sort_key_orders_path_line_col_detector(self):
        findings = [
            _finding("b.py", 1, 0),
            _finding("a.py", 2, 0),
            _finding("a.py", 1, 4, "hash-seed"),
            _finding("a.py", 1, 4, "bare-except"),
            _finding("a.py", 1, 0),
        ]
        ordered = sorted(findings, key=Finding.sort_key)
        assert [(f.path, f.line, f.col, f.detector) for f in ordered] == [
            ("a.py", 1, 0, "wall-clock"),
            ("a.py", 1, 4, "bare-except"),
            ("a.py", 1, 4, "hash-seed"),
            ("a.py", 2, 0, "wall-clock"),
            ("b.py", 1, 0, "wall-clock"),
        ]

    def test_counts_skip_suppressed_findings(self):
        report = AnalysisReport(
            root=".",
            findings=[
                _finding(severity=Severity.ERROR, detector="hash-seed"),
                _finding(line=2, detector="bare-except",
                         root_cause=RootCause.MISSING_LOGIC),
                _finding(line=3, severity=Severity.ERROR).suppress(),
            ],
        )
        assert report.counts_by_severity() == {"info": 0, "warning": 1, "error": 1}
        assert report.counts_by_detector() == {"bare-except": 1, "hash-seed": 1}
        assert report.counts_by_root_cause() == {
            RootCause.CONCURRENCY.value: 1,
            RootCause.MISSING_LOGIC.value: 1,
        }
        assert report.to_dict()["counts"]["suppressed"] == 1


class TestSourceDiscovery:
    @pytest.mark.parametrize(
        ("relative", "expected"),
        [
            ("recovery/journal.py", ("repro.recovery.journal", "repro.recovery")),
            ("recovery/__init__.py", ("repro.recovery", "repro.recovery")),
            ("__main__.py", ("repro.__main__", "repro")),
        ],
        ids=["module", "package-init", "top-level"],
    )
    def test_module_name_follows_the_package_layout(self, relative, expected):
        assert module_name_for(PACKAGE / relative) == expected

    def test_loose_file_is_its_own_module(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("x = 1\n")
        assert module_name_for(path) == ("script", "script")

    def test_files_sorted_and_deduplicated(self, tmp_path):
        for name in ("b.py", "a.py", "notes.txt"):
            (tmp_path / name).write_text("")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "c.py").write_text("")
        files = list(iter_source_files([tmp_path, tmp_path / "a.py"]))
        assert [f.relative_to(tmp_path.resolve()).as_posix() for f in files] == [
            "a.py", "b.py", "sub/c.py",
        ]

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(StaticAnalysisError, match="no such path"):
            list(iter_source_files([tmp_path / "absent"]))

    def test_non_python_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("")
        with pytest.raises(StaticAnalysisError, match="not a Python source path"):
            list(iter_source_files([path]))


# -- one walk per module: the loader's pass against plain ast.walk -------------

PACKAGE = Path(repro.__file__).parent
REPO = PACKAGE.parents[1]
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Every module the loader oracle checks: the package and every fixture.
_LOADED = sorted(PACKAGE.rglob("*.py")) + sorted(FIXTURES.rglob("*.py"))


def _import_table_oracle(tree: ast.Module) -> dict[str, str]:
    """The import table as a second full walk built it."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    table[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                table[bound] = f"{node.module}.{alias.name}"
    return table


def _iter_own_nodes_oracle(scope: ast.AST):
    """A scope's own nodes as the stack generator yielded them."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _own_nodes_in_walk_order(scope: ast.AST) -> list[ast.AST]:
    """The same nodes, breadth-first like ast.walk."""
    found: list[ast.AST] = []
    todo = deque(ast.iter_child_nodes(scope))
    while todo:
        node = todo.popleft()
        found.append(node)
        if not isinstance(node, _SCOPE_NODES):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _collect_lock_names_oracle(module: ModuleInfo):
    """Lock names as a walk of every top-level class body found them."""
    names = concurrency._LockNames()
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and concurrency._is_lock_ctor(
            node.value, module
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.module_level.add(target.id)
        elif isinstance(node, ast.ClassDef):
            attrs: set[str] = set()
            for item in ast.walk(node):
                if isinstance(item, ast.Assign) and concurrency._is_lock_ctor(
                    item.value, module
                ):
                    for target in item.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
                        elif isinstance(target, ast.Name):
                            attrs.add(target.id)
            if attrs:
                names.class_attrs[node.name] = attrs
    return names


def _plain_walks(monkeypatch) -> None:
    """Point every detector and the summarizer back at plain walks."""
    monkeypatch.setattr(
        ModuleInfo, "nodes_of",
        lambda self, *types: [n for n in ast.walk(self.tree) if isinstance(n, types)],
    )
    monkeypatch.setattr(
        ModuleInfo, "own_nodes",
        lambda self, scope: list(_iter_own_nodes_oracle(scope)),
    )
    for user in (concurrency, summaries):
        monkeypatch.setattr(user, "_collect_lock_names", _collect_lock_names_oracle)


def _lint_json(target: Path, root: Path) -> tuple[str, str]:
    classic = to_json(run_lint([target], root=root))
    flow = run_interprocedural([target], root=root, cache_root=None, jobs=1)
    return classic, to_json(flow.report)


class TestOneWalk:
    @pytest.mark.parametrize(
        "path", _LOADED, ids=[p.relative_to(REPO).as_posix() for p in _LOADED]
    )
    def test_loader_pass_matches_ast_walk(self, path):
        module = load_module(path)
        walked = list(ast.walk(module.tree))
        assert len(module.nodes) == len(walked)
        assert all(mine is theirs for mine, theirs in zip(module.nodes, walked))
        # Each child maps to the parent ast.walk reaches it from (a leaf
        # ast.parse shares, like Load(), keeps the last such parent).
        expected: dict[int, ast.AST] = {}
        for parent in walked:
            for child in ast.iter_child_nodes(parent):
                expected[id(child)] = parent
        for node in walked[1:]:
            assert module.parents[node] is expected[id(node)]
        assert len(module.parents) == len(expected)
        assert module.imports == _import_table_oracle(module.tree)
        scopes = [module.tree, *(n for n in walked if isinstance(n, _SCOPE_NODES))]
        assert module.scopes.keys() == set(scopes)
        for scope in scopes:
            own = module.own_nodes(scope)
            assert Counter(map(id, own)) == Counter(
                map(id, _iter_own_nodes_oracle(scope))
            )
            oracle = _own_nodes_in_walk_order(scope)
            assert len(own) == len(oracle)
            assert all(mine is theirs for mine, theirs in zip(own, oracle))

    @pytest.mark.parametrize(
        "target",
        [
            *sorted(FIXTURES.rglob("*.py")),
            FIXTURES,
            FIXTURES / "dataflow",
            PACKAGE,
        ],
        ids=lambda p: p.relative_to(REPO).as_posix(),
    )
    def test_findings_match_plain_walks(self, target, monkeypatch):
        root = REPO if target == PACKAGE else FIXTURES
        one_walk = _lint_json(target, root)
        with monkeypatch.context() as patched:
            _plain_walks(patched)
            plain = _lint_json(target, root)
        assert one_walk == plain

    def test_hash_seed_points_at_first_hash_in_walk_order(self):
        path = FIXTURES / "hash_seed_order_pos.py"
        report = _run_single("hash-seed", path)
        # hash(b) at column 38 is breadth-first before hash(a) at 27.
        assert [(f.line, f.col) for f in report.active] == [(17, 38)]


class TestNoGarbage:
    """Everything a lint allocates is freed by reference counting alone,
    and the lint entry points put the collector back as they found it."""

    def test_a_lint_leaves_nothing_for_the_collector(
        self, tmp_path, collector_state
    ):
        cache = tmp_path / "cache"
        gc.disable()
        gc.collect()
        for target in [PACKAGE, FIXTURES]:
            run_lint([target], root=REPO)
            run_interprocedural([target], root=REPO, cache_root=None, jobs=1)
            cold = run_interprocedural(
                [target], root=REPO, cache_root=cache, jobs=1
            )
            assert cold.stats["cache_misses"] > 0
            warm = run_interprocedural(
                [target], root=REPO, cache_root=cache, jobs=1
            )
            assert warm.stats["cache_hits"] > 0
            assert warm.stats["cache_misses"] == 0
            del cold, warm
        assert gc.collect() == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(
        self, tmp_path, enabled, collector_state
    ):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n")
        if enabled:
            gc.enable()
        else:
            gc.disable()
        run_lint([FIXTURES], root=FIXTURES)
        assert gc.isenabled() is enabled
        run_interprocedural([FIXTURES], root=FIXTURES, cache_root=None, jobs=1)
        assert gc.isenabled() is enabled
        with pytest.raises(StaticAnalysisError):
            run_lint([broken], root=tmp_path)
        assert gc.isenabled() is enabled
        with pytest.raises(StaticAnalysisError):
            run_interprocedural([broken], root=tmp_path, cache_root=None, jobs=1)
        assert gc.isenabled() is enabled

    def test_pool_task_pauses_the_collector_itself(
        self, monkeypatch, collector_state
    ):
        # A worker started without fork begins with the collector on.
        seen: list[bool] = []
        monkeypatch.setattr(
            dataflow_engine,
            "summarize_module",
            lambda path: seen.append(gc.isenabled()),
        )
        gc.enable()
        dataflow_engine._summarize_task("module.py")
        assert seen == [False]
        assert gc.isenabled()
