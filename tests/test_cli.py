"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.seed == 2020 and args.output == "corpus.jsonl"

    def test_validate_rejects_unknown_dimension(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--dimensions", "vibes"])


class TestCommands:
    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "bench_determinism.py" in out
        assert "SS II-C2" in out

    def test_generate_and_analyze_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        assert main(["generate", "--seed", "7", "--output", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RQ1: determinism" in out
        assert "RQ3: triggers" in out

    def test_inject_smoke(self, capsys):
        assert main(["inject", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "CORD-2470" in out
        assert "FIX FAILED" not in out

    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--build", "buggy", "--runs", "3", "--show", "1"]) == 0
        out = capsys.readouterr().out
        assert "build=buggy" in out

    def test_adversary_smoke(self, tmp_path, capsys):
        from repro.adversary import FaultSchedule

        trace = tmp_path / "minimized.json"
        assert main(["adversary", "--seed", "0", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "first violation" in out
        assert "replay of minimized trace violates: True" in out
        assert len(FaultSchedule.from_json(trace.read_text())) <= 5

    def test_adversary_ab_smoke(self, capsys):
        assert main(["adversary", "--ab", "--schedules", "2",
                     "--events", "14"]) == 0
        out = capsys.readouterr().out
        assert "Adversarial A/B" in out
        assert "violating subjects" in out

    def test_lint_clean_fixture_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "clean.py"
        src.write_text("import random\n\nrng = random.Random(7)\n")
        report_path = tmp_path / "report.json"
        assert main(["lint", str(src), "--baseline", "none",
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert report_path.exists()

    def test_lint_fails_on_errors(self, tmp_path, capsys):
        src = tmp_path / "dirty.py"
        src.write_text("import random\n\nvalue = random.random()\n")
        assert main(["lint", str(src), "--baseline", "none"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out
        assert main(["lint", str(src), "--baseline", "none",
                     "--fail-on", "never"]) == 0

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        src = tmp_path / "dirty.py"
        src.write_text("import time\n\nstamp = time.time()\n")
        assert main(["lint", str(src), "--baseline", "none",
                     "--format", "json", "--fail-on", "never"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["detector"] == "wall-clock"

    def test_lint_write_then_apply_baseline(self, tmp_path, capsys):
        src = tmp_path / "dirty.py"
        src.write_text("import random\n\nvalue = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(src), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(src), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_lint_smell_kinds(self, capsys):
        import pathlib

        import repro

        target = pathlib.Path(repro.__file__).parent / "sdnsim"
        assert main(["lint", str(target), "--baseline", "none",
                     "--fail-on", "never",
                     "--smell-kinds", "god_component"]) == 0
        out = capsys.readouterr().out
        assert "Fig-8 smells over extracted model" in out
        assert "god_component" in out

    def test_serve_smoke(self, tmp_path, capsys):
        assert main(["serve", "--duration", "5", "--base-rate", "2",
                     "--bursts", "0", "--seed", "3",
                     "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hardened daemon" in out
        assert "goodput" in out
        assert (tmp_path / "requests.journal").exists()

    def test_ingest_smoke(self, tmp_path, capsys):
        assert main(["ingest", "--events", "300", "--batch", "100",
                     "--block", "25", "--pool", "60", "--seed", "3",
                     "--corrupt-rate", "0.05", "--duplicate-rate", "0.1",
                     "--run-dir", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "records consumed" in out
        assert "fingerprint" in out
        assert (tmp_path / "run" / "journal.jsonl").exists()
        assert (tmp_path / "run" / "metrics.jsonl").exists()

    def test_serve_ab_drains_for_the_settle_flag(self, tmp_path, capsys):
        tables = []
        for settle in ("0", "120"):
            assert main(["serve", "--ab", "--duration", "5", "--base-rate", "2",
                         "--bursts", "0", "--seed", "3", "--settle", settle,
                         "--workdir", str(tmp_path / settle)]) == 0
            tables.append(capsys.readouterr().out.split("metrics export")[0])
        assert tables[0] != tables[1]

    def test_serve_bare_smoke(self, tmp_path, capsys):
        assert main(["serve", "--duration", "5", "--base-rate", "2",
                     "--bursts", "0", "--seed", "3", "--bare",
                     "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bare daemon" in out


class TestErrorHandling:
    """Bad input must exit non-zero with a one-line diagnostic, not a
    traceback — the CLI hardening satellite of the serving PR."""

    def test_unknown_command_exits_2_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["servee"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean 'serve'?" in err
        assert "Traceback" not in err

    def test_misspelled_ingest_exits_2_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingst"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean 'ingest'?" in err
        assert "Traceback" not in err

    def test_ingest_replay_without_journal_is_one_line_error(
            self, tmp_path, capsys):
        code = main(["ingest", "--replay-dlq",
                     "--run-dir", str(tmp_path / "no-such-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro ingest: error:")
        assert "no ingest journal" in err
        assert "Traceback" not in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err

    def test_second_serve_run_over_a_request_journal_exits_2(self, tmp_path, capsys):
        argv = ["serve", "--duration", "5", "--base-rate", "2", "--bursts", "0",
                "--seed", "3", "--workdir", str(tmp_path)]
        assert main(argv) == 0
        journal = tmp_path / "requests.journal"
        first = journal.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ") and "already exists" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        # The refused run appended nothing: recover() still sees one run.
        assert journal.read_bytes() == first
        start = json.loads(first.splitlines()[0])
        assert start["event"] == "run-start" and len(start["meta"]["config"]) == 64

    def test_serve_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--duration", "soon"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid float value" in err

    def test_serve_invalid_traffic_is_one_line_error(self, tmp_path, capsys):
        code = main(["serve", "--duration", "-1",
                     "--workdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error:")
        assert "Traceback" not in err

    def test_fuzz_resume_missing_journal_is_one_line_error(
            self, tmp_path, capsys):
        code = main(["fuzz", "--resume",
                     "--run-dir", str(tmp_path / "no-such-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro fuzz: error:")
        assert "journal does not exist" in err
        assert "Traceback" not in err

    def test_fuzz_bad_topology_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--topology", "torus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'torus'" in err

    def test_pipeline_bad_jobs_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--jobs", "many"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid int value" in err

    def test_pipeline_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--parallelism", "4"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
