"""The four workloads.  Each unit calls one subsystem's public entry point
in this process with ``jobs=1``: a cold pass from empty caches and a fresh
run directory, then a warm re-run over what the cold pass left.

=========  ======================================  =============================
workload   cold pass                               warm re-run
=========  ======================================  =============================
study      journaled ``run_pipeline`` into a fresh  ``run_pipeline(resume=)`` over
           cache, then the §VII-B prediction        the finished journal (x30)
ingest     ``run_ingest`` at the CLI's shape        ``run_ingest(resume=True)`` (x8)
lint       ``repro lint --interprocedural`` over    the same lint after the fixed
           the frozen tree, empty summary cache     edit, warm summary cache
fuzz       ``run_campaign`` at the CLI's shape      ``run_campaign(resume=True)``
                                                    (x50)
=========  ======================================  =============================

``cold_s`` times the cold pass, ``relint_s`` one warm re-run (the mean of
the repeats), ``wall_s`` their sum.  ``events_per_s`` and ``schedules_per_s``
are the cold pass's records and executions per second (see ``UnitResult``).

The program's outputs are pure functions of seed and config, so every unit
of a run must produce the same outputs, and at the default seed they must
equal the recorded references.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from snapshot import Edit, materialise

#: ``--seed n`` runs each workload at ``DEFAULT_SEED + n``: ``--seed 0`` is the
#: CLI's default seed, where the reference values were recorded.
DEFAULT_SEED = {"study": 2020, "ingest": 0, "lint": 0, "fuzz": 0}

INGEST_EVENTS = 40_000
FUZZ_BUDGET = 200
STUDY_DIMENSIONS = ("bug_type", "symptom", "fix")
STUDY_STAGES = ("corpus", "tfidf", "nmf", *(f"validate:{d}" for d in STUDY_DIMENSIONS))


class NullTracer:
    """Stands in for :class:`tracing.Tracer` in untraced units."""

    phase = ""


@dataclass
class UnitResult:
    #: ``perf_counter`` stamps: unit start, end of the cold pass, unit end.
    start: float
    cold_end: float
    end: float
    #: Seconds of each warm re-run (``relint_s`` is their median).
    warm_times: list[float]
    #: Input records the cold pass consumed (``events_per_s``).
    records: int
    #: Independent executions the cold pass ran (``schedules_per_s``).
    executions: int
    attempted: int
    #: Outputs that must be identical across units (and equal the references).
    outputs: dict[str, Any]
    #: Per-layer counts read from the program's own results.
    counts: dict[str, float] = field(default_factory=dict)
    #: Invariant violations found in this unit.
    problems: list[str] = field(default_factory=list)

    @property
    def cold_s(self) -> float:
        return self.cold_end - self.start

    @property
    def warm_s(self) -> float:
        return statistics.median(self.warm_times)

    @property
    def wall_s(self) -> float:
        """One cold pass plus one warm re-run."""
        return self.cold_s + self.warm_s


def sorted_findings(findings: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Findings in the report's canonical order (path, line, col, detector, message)."""
    return sorted(findings, key=lambda f: (f["path"], f["line"], f["col"],
                                           f["detector"], f["message"]))


def digest(value: Any) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    #: Fewest timed units per run, whatever ``--seconds`` says.
    min_units = 2
    #: Warm re-runs per unit; sub-second ones repeat so one slow file-system
    #: call does not decide the reading.
    warm_runs = 1
    #: Whether the seed changes the inputs (if not, references hold at every seed).
    seeded = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = DEFAULT_SEED[self.name] + seed
        #: Whether the reference outputs apply to this run.
        self.default = seed == 0 or not self.seeded
        self.workdir = workdir

    def setup(self) -> None:
        """Imports, input preparation and a warm-up (all in ``setup_s``)."""

    def unit(self, k: int, tracer) -> UnitResult:
        raise NotImplementedError

    def final_check(self, units: list[UnitResult]) -> list[str]:
        """Checks run once per run, after the timed units."""
        return []

    def failed(self, result: UnitResult) -> int:
        """Operations of a unit that failed, before any check runs."""
        return 0

    def reference_problems(self, outputs: dict[str, Any], reference: dict[str, Any]) -> list[str]:
        """Differences from the values recorded at the default seed."""
        return [
            f"{key}: expected {reference[key]!r}, got {outputs.get(key)!r}"
            for key in sorted(reference)
            if outputs.get(key) != reference[key]
        ]


class Study(Workload):
    name = "study"
    #: One unit is 10-20 s; a second runs when ``--seconds`` leaves room.
    min_units = 1
    warm_runs = 30

    def setup(self) -> None:
        from repro.corpus import CorpusGenerator
        from repro.pipeline import AutoClassifier
        from repro.pipeline import scaling  # noqa: F401

        corpus = CorpusGenerator(seed=self.seed).generate()
        sample = corpus.manual_sample
        texts, labels = sample.texts()[:40], sample.labels("trigger")[:40]
        AutoClassifier(seed=0).fit(texts, labels).predict(texts)

    def unit(self, k: int, tracer) -> UnitResult:
        from repro.corpus import CorpusGenerator
        from repro.parallel import ArtifactCache
        from repro.pipeline import AutoClassifier, scaling
        from repro.recovery.journal import EVENT_RUN_END, replay_journal

        root = self.workdir / f"study-{k}"
        cache = ArtifactCache(root)
        start = time.perf_counter()
        result = scaling.run_pipeline(seed=self.seed, jobs=1, cache=cache, run_id="study")
        corpus = CorpusGenerator(seed=self.seed).generate()
        model = AutoClassifier(seed=0)
        trained = corpus.manual_sample.labels("trigger")
        model.fit(corpus.manual_sample.texts(), trained)
        bugs = corpus.dataset.texts()
        predictions = model.predict(bugs)
        cold = time.perf_counter()
        warm_times = []
        for _ in range(self.warm_runs):
            tick = time.perf_counter()
            resumed = scaling.run_pipeline(seed=self.seed, jobs=1, cache=cache,
                                           resume="study")
            warm_times.append(time.perf_counter() - tick)
        end = time.perf_counter()

        problems = []
        replay = replay_journal(root / ".journal" / "study.jsonl")
        if replay.events[-1].event != EVENT_RUN_END:
            problems.append(f"journal ends in {replay.events[-1].event}, not run-end")
        if sorted(replay.committed()) != sorted(STUDY_STAGES):
            problems.append(f"committed stages {sorted(replay.committed())}")
        if resumed.skipped_stages != list(STUDY_STAGES):
            problems.append(f"resume skipped {resumed.skipped_stages}")
        if resumed.accuracies() != result.accuracies():
            problems.append("resumed accuracies differ from the cold run")
        untrained = sorted(set(predictions) - set(trained))
        if len(predictions) != len(bugs) or untrained:
            problems.append(f"{len(predictions)} predictions for {len(bugs)} bugs, "
                            f"untrained classes {untrained}")
        # Which trigger dominates depends on the seed's corpus (external_calls
        # leads at seed 2044), so it is a reference check, not an invariant.
        shares = {tag: predictions.count(tag) / len(predictions)
                  for tag in sorted(set(predictions))}
        shutil.rmtree(root)

        accuracies = result.accuracies()
        tested = sum(report.n_test for report in result.reports.values())
        return UnitResult(
            start=start, cold_end=cold, end=end, warm_times=warm_times,
            records=tested + len(predictions),
            executions=len(result.stages) + 1,
            attempted=len(STUDY_DIMENSIONS) + 1,
            outputs={
                "accuracies": accuracies,
                "weights": digest({d: r.weights_digest for d, r in result.reports.items()}),
                "topics": digest(result.topics),
                "trigger_shares": shares,
            },
            problems=problems,
        )

    def reference_problems(self, outputs, reference):
        problems = [
            f"{dim} accuracy {outputs['accuracies'].get(dim)} is more than 1 point "
            f"from the reference {value}"
            for dim, value in reference["accuracies"].items()
            if abs(outputs["accuracies"].get(dim, -1.0) - value) > 0.01 + 1e-9
        ]
        top = max(outputs["trigger_shares"], key=outputs["trigger_shares"].get)
        if top != reference["dominant_trigger"]:
            problems.append(f"dominant trigger {top}, expected {reference['dominant_trigger']}")
        return problems


class Ingest(Workload):
    name = "ingest"
    min_units = 3
    warm_runs = 8

    def config(self, events: int):
        from repro.stream import IngestConfig

        # The `repro ingest` CLI's default shape and fault mix.
        return IngestConfig(
            seed=self.seed, events=events, batch=2048, block=64, pool=5000,
            outage_rate=0.1, outage_depth=2, rate_limit_rate=0.05,
            corrupt_rate=0.01, duplicate_rate=0.05, reorder_rate=0.2,
            queue_capacity=256, retry_attempts=4,
        )

    def setup(self) -> None:
        from repro.stream import ingest

        ingest.run_ingest(self.config(2048), self.workdir / "ingest-warmup")
        shutil.rmtree(self.workdir / "ingest-warmup")

    def unit(self, k: int, tracer) -> UnitResult:
        from repro.resilience.ledger import ResilienceEvent
        from repro.stream import ingest

        config = self.config(INGEST_EVENTS)
        run_dir = self.workdir / f"ingest-{k}"
        start = time.perf_counter()
        report = ingest.run_ingest(config, run_dir)
        cold = time.perf_counter()
        warm_times = []
        for _ in range(self.warm_runs):
            tick = time.perf_counter()
            resumed = ingest.run_ingest(config, run_dir, resume=True)
            warm_times.append(time.perf_counter() - tick)
        end = time.perf_counter()

        state = report.state
        problems = []
        unaccounted = state.consumed - (state.applied + state.deduped + state.dead_lettered)
        if unaccounted:
            problems.append(f"{unaccounted} consumed records are unaccounted for")
        give_ups = sum(
            1 for record in report.ledger.records
            if record.event is ResilienceEvent.GIVE_UP and record.component == "stream-source"
        )
        if give_ups != state.blocks_abandoned:
            problems.append(
                f"{give_ups} give-ups priced, {state.blocks_abandoned} blocks abandoned"
            )
        if resumed.state.fingerprint() != state.fingerprint():
            problems.append("resume of the finished run changed the state fingerprint")
        shutil.rmtree(run_dir)

        counters = {
            name: getattr(state, name)
            for name in ("consumed", "applied", "deduped", "dead_lettered", "lost_upstream",
                         "blocks_fetched", "blocks_abandoned", "retries", "rate_limited",
                         "trained")
        }
        return UnitResult(
            start=start, cold_end=cold, end=end, warm_times=warm_times,
            records=state.consumed,
            executions=state.blocks_fetched + state.blocks_abandoned,
            attempted=state.consumed,
            outputs={
                "counters": counters,
                "analytics_digest": state.analytics_digest(),
                "fingerprint": state.fingerprint(),
            },
            counts={
                "stream.blocks": state.blocks_fetched,
                "stream.retries": state.retries,
                "stream.give_ups": state.blocks_abandoned,
                "stream.records": state.consumed,
                "stream.dedup_ratio": state.deduped / state.consumed,
                "stream.trained": state.trained,
                "stream.dead_lettered": state.dead_lettered,
            },
            problems=problems,
        )

    def failed(self, result: UnitResult) -> int:
        counters = result.outputs["counters"]
        return counters["consumed"] - (
            counters["applied"] + counters["deduped"] + counters["dead_lettered"]
        )


class Lint(Workload):
    """``repro lint --interprocedural`` as the CLI runs it, over the frozen tree.

    The input is the same for every seed: the seed changes nothing here.
    """

    name = "lint"
    seeded = False

    def setup(self) -> None:
        from repro.staticanalysis import Analyzer
        from repro.staticanalysis.dataflow import engine

        self.root = materialise(self.workdir / "tree")
        self.package = self.root / "src" / "repro"
        self.edit = Edit(self.root)
        warm = [self.package / "recovery"]
        Analyzer(root=self.root).run(warm)
        engine.run_interprocedural(warm, root=self.root,
                                   cache_root=self.workdir / "lint-warmup", jobs=1)
        shutil.rmtree(self.workdir / "lint-warmup")

    def lint(self, cache_root: Path | None):
        """One ``repro lint --interprocedural`` pass.

        Returns (classic findings, dataflow findings, modules scanned, stats).
        """
        from repro.staticanalysis import Analyzer
        from repro.staticanalysis.dataflow import engine

        classic = Analyzer(root=self.root).run([self.package])
        result = engine.run_interprocedural([self.package], root=self.root,
                                            cache_root=cache_root, jobs=1)
        return (
            [f.to_dict() for f in classic.findings],
            [f.to_dict() for f in result.report.findings],
            classic.modules_scanned,
            result.stats,
        )

    def unit(self, k: int, tracer) -> UnitResult:
        cache_root = self.workdir / f"lint-cache-{k}"
        start = time.perf_counter()
        tracer.phase = "cold"
        cold_classic, cold_flow, cold_modules, cold_stats = self.lint(cache_root)
        cold = time.perf_counter()
        tracer.phase = "relint"
        self.edit.apply()
        try:
            re_classic, re_flow, re_modules, re_stats = self.lint(cache_root)
        finally:
            self.edit.revert()
            tracer.phase = ""
        end = time.perf_counter()
        warm_times = [end - cold]
        shutil.rmtree(cache_root)

        problems = []
        if cold_stats["cache_hits"] or re_stats["cache_misses"] != len(self.edit.paths):
            problems.append(
                f"summary cache: cold {cold_stats['cache_hits']} hits, re-lint "
                f"{re_stats['cache_misses']} misses for {len(self.edit.paths)} edited modules"
            )
        cold_findings = sorted_findings(cold_classic + cold_flow)
        re_findings = sorted_findings(re_classic + re_flow)
        counts = {}
        for phase, findings, modules, stats in (
            ("cold", cold_findings, cold_modules, cold_stats),
            ("relint", re_findings, re_modules, re_stats),
        ):
            counts[f"staticanalysis.{phase}.modules"] = modules
            counts[f"staticanalysis.{phase}.functions"] = stats["functions"]
            counts[f"staticanalysis.{phase}.edges"] = stats["resolved_edges"]
            counts[f"staticanalysis.{phase}.findings"] = len(findings)
        return UnitResult(
            start=start, cold_end=cold, end=end, warm_times=warm_times,
            records=cold_modules,
            executions=cold_stats["functions"],
            attempted=cold_modules + re_modules,
            outputs={
                "cold_findings": digest(cold_findings),
                "cold_count": len(cold_findings),
                "relint_findings": digest(re_findings),
                "relint_count": len(re_findings),
                "relint_dataflow": re_flow,
                "relint_graph": [re_stats["functions"], re_stats["resolved_edges"]],
                "modules": cold_modules,
                "functions": cold_stats["functions"],
                "edges": cold_stats["resolved_edges"],
            },
            counts=counts,
            problems=problems,
        )

    def final_check(self, units: list[UnitResult]) -> list[str]:
        """The re-lint report must equal a cold lint of the edited tree.

        Only the interprocedural half has a cache; the classic half of every
        re-lint is already a cold scan of the edited tree.
        """
        from repro.staticanalysis.dataflow import engine

        self.edit.apply()
        try:
            result = engine.run_interprocedural([self.package], root=self.root,
                                                cache_root=None, jobs=1)
        finally:
            self.edit.revert()
        flow = [f.to_dict() for f in result.report.findings]
        graph = [result.stats["functions"], result.stats["resolved_edges"]]
        outputs = units[0].outputs
        if flow != outputs["relint_dataflow"] or graph != outputs["relint_graph"]:
            return ["re-lint report differs from a cold lint of the edited tree"]
        return []


class Fuzz(Workload):
    name = "fuzz"
    min_units = 3
    warm_runs = 50

    def config(self, budget: int, batch: int = 20):
        from repro.fuzzing import FuzzConfig

        # The `repro fuzz` CLI's default shape.
        return FuzzConfig(
            controllers=5, switches=20, flows=None, topology="ring", budget=budget,
            batch=batch, seed=self.seed, horizon=40.0, hardened=False,
            guided=True, minimize=True,
        )

    def setup(self) -> None:
        from repro.fuzzing import campaign

        campaign.run_campaign(self.config(8, batch=4), self.workdir / "fuzz-warmup", jobs=1)
        shutil.rmtree(self.workdir / "fuzz-warmup")

    def unit(self, k: int, tracer) -> UnitResult:
        from repro.fuzzing import campaign

        config = self.config(FUZZ_BUDGET)
        run_dir = self.workdir / f"fuzz-{k}"
        start = time.perf_counter()
        report = campaign.run_campaign(config, run_dir, jobs=1)
        cold = time.perf_counter()
        warm_times = []
        for _ in range(self.warm_runs):
            tick = time.perf_counter()
            resumed = campaign.run_campaign(config, run_dir, resume=True, jobs=1)
            warm_times.append(time.perf_counter() - tick)
        end = time.perf_counter()

        state = report.state
        problems = []
        if state.executed != config.budget:
            problems.append(f"executed {state.executed} of a {config.budget}-schedule budget")
        if resumed.state.fingerprint() != state.fingerprint():
            problems.append("resume of the finished campaign changed the state fingerprint")
        shutil.rmtree(run_dir)

        replays = sum(r.replays for r in state.reproducers.values())
        return UnitResult(
            start=start, cold_end=cold, end=end, warm_times=warm_times,
            records=state.executed + replays,
            executions=state.executed,
            attempted=config.budget,
            outputs={
                "coverage": digest(sorted(state.coverage)),
                "coverage_count": len(state.coverage),
                "signatures": digest(sorted(state.signatures)),
                "signature_count": len(state.signatures),
                "reproducer_classes": sorted(state.reproducers),
                "fingerprint": state.fingerprint(),
            },
            counts={
                "fuzzing.executed": state.executed,
                "fuzzing.novel_ratio": len(state.corpus) / state.executed,
                "fuzzing.signatures": len(state.signatures),
            },
            problems=problems,
        )

    def failed(self, result: UnitResult) -> int:
        return result.attempted - result.counts["fuzzing.executed"]


WORKLOADS = {cls.name: cls for cls in (Study, Ingest, Lint, Fuzz)}
