"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate     Generate the study corpus and write it to JSONL.
analyze      Run RQ1-RQ3 analyses over a corpus (generated or from JSONL).
validate     Run the SS II-C NLP validation protocol.
pipeline     Run the NLP scaling pipeline (parallel workers + artifact cache).
inject       Execute the fault-injection campaign and the named case studies.
chaos        Run a Chaos-Monkey fuzzing campaign.
resilience   A/B fault campaign: bare scenarios vs the resilience runtime.
adversary    Control-plane adversary: violate an invariant, minimize the trace.
fuzz         Coverage-guided fault-schedule fuzzing over a parameterized topology.
ingest       Fault-tolerant streaming ingestion of tracker events.
lint         Run sdnlint: taxonomy-mapped AST bug-pattern checks + smells.
serve        Run the overload-robust triage serving daemon over a seeded trace.
metrics      Render an observability report (spans + metrics) from a run dir.
trajectory   Inspect or gate the persistent benchmark trajectory.
experiments  List every reproducible paper artifact and its bench.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys

from repro.errors import ReproError
from repro.reporting import ascii_table, format_percent, render_distribution


class CLIParser(argparse.ArgumentParser):
    """Argparse with friendlier failures: every bad invocation exits 2 with
    a one-line error (plus a did-you-mean hint for close misspellings) —
    never a traceback."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        hint = ""
        match = re.search(r"invalid choice: '([^']*)'.*\(choose from (.*)\)",
                          message)
        if match:
            choices = [c.strip().strip("'\"") for c in match.group(2).split(",")]
            close = difflib.get_close_matches(match.group(1), choices, n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
        print(f"{self.prog}: error: {message}{hint}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusGenerator, save_dataset_jsonl

    corpus = CorpusGenerator(seed=args.seed).generate()
    save_dataset_jsonl(corpus.dataset, args.output)
    counts = corpus.dataset.split_counts()
    print(f"wrote {len(corpus.dataset)} labeled bugs to {args.output}")
    print(f"per controller: {counts}")
    return 0


def _load_dataset(args: argparse.Namespace):
    from repro.corpus import CorpusGenerator, load_dataset_jsonl

    if args.input:
        return load_dataset_jsonl(args.input)
    return CorpusGenerator(seed=args.seed).generate().dataset


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        determinism_rates,
        symptom_distribution,
        trigger_distribution,
    )

    dataset = _load_dataset(args)
    print(ascii_table(
        ["controller", "deterministic"],
        [[c, format_percent(r)] for c, r in sorted(determinism_rates(dataset).items())],
        title="RQ1: determinism",
    ))
    print()
    print(render_distribution(symptom_distribution(dataset), title="RQ2: symptoms"))
    print()
    print(render_distribution(trigger_distribution(dataset), title="RQ3: triggers"))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusGenerator
    from repro.pipeline.validation import validate_dimensions_resilient

    corpus = CorpusGenerator(seed=args.seed).generate()
    reports, execution = validate_dimensions_resilient(
        corpus.manual_sample, dimensions=args.dimensions, seed=0
    )
    for dimension in args.dimensions:
        if dimension in reports:
            print(reports[dimension].summary())
    for failure in execution.failures:
        print(f"{failure.item:12s} FAILED: {failure.error}")
    if execution.degraded:
        print(f"degraded run: {len(execution.failures)}/{execution.total} "
              "dimension(s) failed")
    return 1 if execution.degraded else 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.parallel import ArtifactCache
    from repro.pipeline.scaling import run_pipeline

    # Journaled runs (--run-id / --resume) need checkpoints to recover from.
    want_cache = args.cache or args.run_id is not None or args.resume is not None
    cache = ArtifactCache(args.cache_root) if want_cache else None
    result = run_pipeline(
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        dimensions=args.dimensions,
        n_topics=args.topics,
        nmf_restarts=args.restarts,
        run_id=args.run_id,
        resume=args.resume,
    )
    rows = [
        [t.stage, f"{t.seconds:8.3f}s", "hit" if t.cache_hit else "-"]
        for t in result.stages
    ]
    print(ascii_table(
        ["stage", "wall time", "cache"],
        rows,
        title=f"NLP scaling pipeline (jobs={result.jobs}, seed={result.seed})",
    ))
    print()
    for dimension, report in result.reports.items():
        print(report.summary())
    print(f"\ntopics ({len(result.topics)}): "
          + "; ".join(" ".join(topic[:4]) for topic in result.topics[:4]) + " ...")
    print(f"total {result.total_seconds:.3f}s over {result.n_documents} docs x "
          f"{result.n_features} features")
    if result.resumed:
        print(f"resumed run {result.run_id!r}: "
              f"{len(result.skipped_stages)} stage(s) skipped from journal "
              f"({', '.join(result.skipped_stages) or 'none'})")
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['stored']} stored, {stats['quarantined']} quarantined "
              f"under {cache.root}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.faultinjection import CASE_RUNNERS, FaultCampaign, run_case

    campaign = FaultCampaign(seeds_per_fault=args.seeds).run()
    rows = [
        [
            r.spec.fault_id,
            r.spec.trigger.value,
            f"{r.manifestation_rate:.0%}",
            "ok" if r.matches_expectation else "MISMATCH",
        ]
        for r in campaign.results
    ]
    print(ascii_table(["fault", "trigger", "manifestation", "taxonomy match"],
                      rows, title="Fault campaign"))
    print()
    for case_id in sorted(CASE_RUNNERS):
        outcome = run_case(case_id)
        status = "fix works" if outcome.fix_removes_symptom else "FIX FAILED"
        buggy = outcome.buggy.symptom.value if outcome.buggy.symptom else "healthy"
        print(f"  {case_id:12s} buggy={buggy:12s} {status}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosMonkey
    from repro.faultinjection.scenario import build_scenario

    factories = {
        "buggy": lambda: build_scenario(
            mirror_broadcast=False, multicast_guard=False,
            gauge_cast_types=False, adapter_timeout=None,
        ),
        "patched": build_scenario,
        "hardened": lambda: build_scenario(input_validation=True),
    }
    factory = factories[args.build]
    monkey = ChaosMonkey(factory, seed=args.seed, hardened=args.resilient)
    report = monkey.run_campaign(runs=args.runs)
    label = f"build={args.build}" + (" +resilience" if args.resilient else "")
    print(f"{label}: {len(report.findings)}/{report.runs} runs "
          f"surfaced a symptom")
    for finding in report.findings[: args.show]:
        symptom = finding.outcome.symptom.value
        print(f"  run {finding.run_index:3d} {finding.perturbations} -> "
              f"{symptom}: {finding.outcome.detail[:60]}")
    if report.ledger is not None:
        print(f"  resilience actions: {report.ledger.summary()}")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.faultinjection import FaultCampaign

    report = FaultCampaign(seeds_per_fault=args.seeds).run_ab()
    rows = [
        [
            r.spec.fault_id,
            r.spec.bug_type.value,
            f"{r.baseline_symptom_rate:.0%}",
            f"{r.hardened_symptom_rate:.0%}",
            str(r.restarts),
            ", ".join(sorted(s.value for s in r.residual_symptoms)) or "-",
        ]
        for r in report.results
    ]
    print(ascii_table(
        ["fault", "determinism", "bare", "hardened", "restarts", "residual"],
        rows,
        title="A/B fault campaign: bare vs resilience runtime",
    ))
    print()
    summary = report.summary()
    print(f"symptom rate: {format_percent(report.baseline_symptom_rate)} bare -> "
          f"{format_percent(report.hardened_symptom_rate)} hardened "
          f"(reduction {format_percent(report.symptom_reduction)})")
    print(f"improved faults: {', '.join(summary['improved_faults']) or 'none'}")
    print(f"mean recovery latency: {report.mean_recovery_latency:.1f}s simulated")
    residual = report.residual_by_root_cause()
    if residual:
        total = sum(residual.values())
        print(render_distribution(
            {cause.value: count / total for cause, count in residual.items()},
            title="residual symptoms by root cause",
        ))
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    from repro.adversary import (
        find_violating_schedule,
        minimize_schedule,
        run_adversary,
    )

    if args.ab:
        from repro.faultinjection import FaultCampaign

        campaign = FaultCampaign(base_seed=args.seed, seeds_per_fault=args.schedules)
        report = campaign.run_adversarial_ab(events=args.events)
        rows = [
            [name, str(bare), str(hardened)]
            for name, (bare, hardened) in sorted(report.per_invariant().items())
        ]
        print(ascii_table(
            ["invariant", "bare", "hardened"],
            rows,
            title="Adversarial A/B: violating subjects per invariant",
        ))
        summary = report.summary()
        print(f"violating subjects: {summary['bare_violations']} bare -> "
              f"{summary['hardened_violations']} hardened "
              f"(reduction {summary['violation_reduction']}); "
              f"hardened spent {summary['hardened_retries']} retries")
        return 0

    seed, schedule, result = find_violating_schedule(
        args.seed, events=args.events, hardened=args.hardened
    )
    print(f"seed {seed}: {len(schedule)} events -> "
          f"{len(result.violations)} violation(s)")
    first = result.first_violation
    assert first is not None
    print(f"first violation: {first.invariant} on {first.subject} "
          f"at t={first.time:.3f} ({first.detail})")
    for name, count in sorted(result.by_invariant().items()):
        print(f"  {name}: {count}")

    minimized = minimize_schedule(schedule, hardened=args.hardened)
    print()
    print(minimized.summary())
    for event in minimized.minimized.events:
        print(f"  t={event.time:8.3f} {event.action.value:10s} "
              f"{event.target}" + (f" param={event.param}" if event.param else ""))
    replay = run_adversary(minimized.minimized, hardened=args.hardened)
    print(f"replay of minimized trace violates: {replay.violated} "
          f"({replay.first_violation.invariant if replay.first_violation else '-'})")
    if args.trace_out:
        import pathlib

        pathlib.Path(args.trace_out).write_text(minimized.minimized.to_json())
        print(f"minimized trace written to {args.trace_out}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzzing import FuzzConfig, run_campaign

    config = FuzzConfig(
        controllers=args.controllers,
        switches=args.switches,
        flows=args.flows,
        topology=args.topology,
        budget=args.budget,
        batch=args.batch,
        seed=args.seed,
        horizon=args.horizon,
        hardened=args.hardened,
        guided=not args.random,
        minimize=not args.no_minimize,
    )
    report = run_campaign(
        config,
        args.run_dir,
        resume=args.resume,
        jobs=args.jobs,
        progress=lambda msg: print(f"  {msg}"),
    )
    print(f"topology: {report.config.topology} "
          f"({config.controllers} controllers x {config.switches} switches)")
    print(report.summary())
    by_origin: dict[str, int] = {}
    for entry in report.state.corpus:
        by_origin[entry.origin] = by_origin.get(entry.origin, 0) + 1
    rows = [[origin, str(count)] for origin, count in sorted(by_origin.items())]
    if rows:
        print(ascii_table(["origin", "corpus entries"], rows,
                          title="Corpus by producing operator"))
    for cls in sorted(report.state.reproducers):
        repro_entry = report.state.reproducers[cls]
        print(f"  reproducer {cls}: {len(repro_entry.original)} -> "
              f"{len(repro_entry.minimized)} events "
              f"({repro_entry.replays} replays / {repro_entry.probes} probes)")
    print(f"state fingerprint: {report.fingerprint[:16]}...")
    print(f"coverage map + reproducers under {report.run_dir}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.stream import IngestConfig, replay_dlq, run_ingest

    if args.replay_dlq:
        outcome = replay_dlq(args.run_dir)
        print(f"DLQ replay: {outcome['recovered']} recovered "
              f"({outcome['applied']} applied, {outcome['deduped']} deduped; "
              f"{outcome['deliveries']} deliveries moved), "
              f"{outcome['remaining']} irrecoverable entr(y/ies) kept")
        return 0

    config = IngestConfig(
        seed=args.seed,
        events=args.events,
        batch=args.batch,
        block=args.block,
        pool=args.pool,
        outage_rate=args.outage_rate,
        outage_depth=args.outage_depth,
        rate_limit_rate=args.rate_limit_rate,
        corrupt_rate=args.corrupt_rate,
        duplicate_rate=args.duplicate_rate,
        reorder_rate=args.reorder_rate,
        queue_capacity=args.queue_capacity,
        retry_attempts=args.retry_attempts,
        learn=not args.no_learn,
    )
    report = run_ingest(
        config,
        args.run_dir,
        resume=args.resume,
        progress=lambda msg: print(f"  {msg}"),
    )
    state = report.state
    print(report.summary())
    rows = [[etype, str(count)] for etype, count in sorted(state.by_type.items())]
    if rows:
        print(ascii_table(["event type", "applied"], rows,
                          title="Applied events by type"))
    window = state.dist.window()
    if window:
        top = sorted(window.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        print("rolling symptom|root-cause window (top 5): "
              + ", ".join(f"{key}={count}" for key, count in top))
    if state.model is not None:
        print(f"online model: {len(state.model.classes_)} classes over "
              f"{state.trained} labeled samples")
    print(f"resilience: {report.ledger.summary()}")
    print(f"DLQ depth {report.dlq_depth} "
          f"(replay with 'repro ingest --run-dir {report.run_dir} --replay-dlq')")
    print(f"state fingerprint: {report.fingerprint[:16]}...")
    print(f"journal + snapshots + metrics under {report.run_dir}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    import repro
    from repro.staticanalysis import (
        AnalysisReport,
        Analyzer,
        Finding,
        Severity,
        apply_baseline,
        load_baseline,
        to_json,
        to_text,
        write_baseline,
    )

    paths = [pathlib.Path(p) for p in args.paths]
    if not paths:
        paths = [pathlib.Path(repro.__file__).parent]
    report = Analyzer().run(paths)

    if args.interprocedural:
        from repro.staticanalysis.dataflow import run_interprocedural

        cache_root = (
            None
            if args.summary_cache == "none"
            else pathlib.Path(args.summary_cache)
        )
        result = run_interprocedural(
            paths, cache_root=cache_root, jobs=args.jobs
        )
        merged = sorted(
            report.findings + result.report.findings, key=Finding.sort_key
        )
        report = AnalysisReport(
            root=report.root,
            findings=merged,
            modules_scanned=report.modules_scanned,
        )
        stats = result.stats
        print(
            f"interprocedural: {stats['functions']} functions, "
            f"{stats['resolved_edges']} resolved edges, summary cache "
            f"{stats['cache_hits']} hit(s) / {stats['cache_misses']} "
            f"miss(es), jobs={stats['jobs']}",
            file=sys.stderr,
        )
        if args.spans_out:
            from repro.observability.spans import spans_to_jsonl

            pathlib.Path(args.spans_out).write_text(
                spans_to_jsonl(result.spans), encoding="utf-8"
            )

    baseline_path = (
        None if args.baseline == "none" else pathlib.Path(args.baseline)
    )
    if args.write_baseline:
        if baseline_path is None:
            print("--write-baseline needs a baseline path, not 'none'",
                  file=sys.stderr)
            return 2
        written = write_baseline(report, baseline_path)
        print(f"baselined {written} finding(s) to {baseline_path}")
        return 0
    if baseline_path is not None:
        report = apply_baseline(report, load_baseline(baseline_path))

    rendered = to_json(report) if args.format == "json" else to_text(report)
    print(rendered)
    if args.output:
        pathlib.Path(args.output).write_text(to_json(report) + "\n",
                                             encoding="utf-8")

    if args.smells or args.smell_kinds:
        from repro.smells import SmellKind, analyze
        from repro.staticanalysis.extract import extract_code_model

        kinds = (
            [SmellKind(value) for value in args.smell_kinds]
            if args.smell_kinds else None
        )
        model = extract_code_model(paths)
        smell_report = analyze(model, kinds=kinds)
        print()
        rows = [
            [inst.kind.value, inst.subject, inst.detail]
            for inst in smell_report.instances
        ] or [["-", "-", "no smells at current thresholds"]]
        print(ascii_table(
            ["smell", "subject", "detail"],
            rows,
            title=(f"Fig-8 smells over extracted model "
                   f"({len(model.classes)} classes, "
                   f"{len(model.packages)} packages)"),
        ))

    if args.fail_on == "never":
        return 0
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    failing = [f for f in report.active if f.severity >= threshold]
    return 1 if failing else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import pathlib

    from repro.parallel.cache import atomic_write
    from repro.serving import (
        RequestLog,
        ServingDaemon,
        TrafficConfig,
        TriageBackend,
        generate_trace,
        goodput,
        percentile,
        replay,
        run_ab,
    )

    traffic = TrafficConfig(
        seed=args.seed,
        duration=args.duration,
        base_rate=args.base_rate,
        burst_rate=args.burst_rate,
        bursts=args.bursts,
    )
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def make_backend():
        return TriageBackend(seed=args.seed, lint_workspace=workdir / "lint")

    if args.ab:
        report = run_ab(make_backend, traffic=traffic, settle=args.settle)
        rows = [
            [
                arm.name,
                f"{arm.goodput:.3f}",
                f"{arm.p50:.3f}s",
                f"{arm.p99:.3f}s",
                str(arm.answered),
                str(arm.deadline_met),
                str(arm.stats["shed"]),
                str(arm.stats["expired"]),
            ]
            for arm in (report.hardened, report.bare)
        ]
        print(ascii_table(
            ["arm", "goodput", "p50", "p99", "answered", "in-deadline",
             "shed", "expired"],
            rows,
            title=(f"Overload A/B: {report.trace_requests} requests over "
                   f"{report.duration:.0f}s simulated"),
        ))
        ratio = report.goodput_ratio
        print(f"goodput ratio (hardened/bare): "
              f"{'inf' if ratio == float('inf') else f'{ratio:.2f}x'}")
        for arm in (report.hardened, report.bare):
            atomic_write(workdir / f"{arm.name}_metrics.jsonl", arm.metrics_jsonl)
        print(f"metrics export: {workdir}/{{hardened,bare}}_metrics.jsonl "
              f"(render with 'repro metrics --run-dir {workdir}')")
        return 0

    from repro.resilience.ledger import ResilienceLedger
    from repro.sdnsim.clock import EventScheduler

    trace = generate_trace(traffic)
    scheduler = EventScheduler()
    ledger = ResilienceLedger()
    request_log = RequestLog(
        workdir / "requests.journal",
        {"traffic": dataclasses.asdict(traffic), "hardened": not args.bare,
         "settle": args.settle},
    )
    daemon = ServingDaemon(
        scheduler,
        make_backend(),
        hardened=not args.bare,
        ledger=ledger,
        request_log=request_log,
    )
    replay(trace, daemon)
    daemon.run(until=traffic.duration + args.settle)
    daemon.close()
    from repro.observability.instrument import ledger_to_metrics

    ledger_to_metrics(ledger, daemon.metrics)
    metrics_path = workdir / "serve_metrics.jsonl"
    atomic_write(metrics_path, daemon.metrics.export_jsonl())
    stats = daemon.stats
    latencies = [r.latency for r in daemon.responses if r.answered]
    mode = "bare" if args.bare else "hardened"
    print(f"{mode} daemon: {stats.submitted} submitted, "
          f"{stats.answered} answered "
          f"({stats.completed_full} full / {stats.served_heuristic} heuristic), "
          f"{stats.shed} shed, {stats.expired} expired, {stats.errors} errors")
    print(f"goodput {goodput(daemon.responses, traffic.duration):.3f}/s, "
          f"p50 {percentile(latencies, 50.0):.3f}s, "
          f"p99 {percentile(latencies, 99.0):.3f}s")
    print(f"resilience ledger: {ledger.summary()}")
    print(f"request journal: {request_log.path}")
    print(f"metrics export: {metrics_path} (render with 'repro metrics "
          f"--run-dir {workdir}')")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.observability.report import collect_run, render_json, render_text

    report = collect_run(args.run_dir)
    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    print(rendered, end="")
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(rendered, encoding="utf-8")
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    from repro.observability.trajectory import (
        DEFAULT_GATES,
        GateRule,
        TrajectoryStore,
    )

    store = TrajectoryStore(args.file)
    gates = (
        [GateRule.parse(spec) for spec in args.gate]
        if args.gate
        else list(DEFAULT_GATES)
    )
    if args.check:
        # Raises TrajectoryGateError (a ReproError -> exit 2) on regression.
        results = store.check(args.candidate, gates=gates)
        for result in results:
            print(result.describe())
        print(f"trajectory check passed ({len(results)} gate(s) evaluated)")
        return 0
    entries = store.load()
    if not entries:
        print(f"{store.path}: no trajectory entries yet")
        return 0
    for entry in entries:
        bench = entry.get("bench", "?")
        metrics = ", ".join(
            f"{key}={entry[key]:g}"
            for key in sorted(entry)
            if key != "bench"
            and isinstance(entry[key], (int, float))
            and not isinstance(entry[key], bool)
        )
        print(f"{bench}: {metrics}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.reporting import EXPERIMENTS

    rows = [[e.exp_id, e.paper_artifact, e.bench] for e in EXPERIMENTS]
    print(ascii_table(["id", "paper artifact", "bench"], rows,
                      title="Reproducible experiments"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = CLIParser(
        prog="repro",
        description="Reproduction of 'A Comprehensive Study of Bugs in SDNs' (DSN'21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the study corpus to JSONL")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--output", default="corpus.jsonl")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("analyze", help="run RQ1-RQ3 analyses")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--input", help="JSONL corpus (default: generate fresh)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("validate", help="run the NLP validation protocol")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument(
        "--dimensions", nargs="+",
        default=["bug_type", "symptom", "fix"],
        choices=["bug_type", "root_cause", "symptom", "fix", "trigger"],
    )
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "pipeline",
        help="run the NLP scaling pipeline with parallel workers + artifact cache",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--jobs", type=int, default=1, help="work-pool width")
    p.add_argument("--cache", action="store_true",
                   help="reuse artifacts keyed on seed + hyperparameters")
    p.add_argument("--cache-root", default="benchmarks/artifacts/cache",
                   help="artifact cache directory")
    p.add_argument(
        "--dimensions", nargs="+",
        default=["bug_type", "symptom", "fix"],
        choices=["bug_type", "root_cause", "symptom", "fix", "trigger"],
    )
    p.add_argument("--topics", type=int, default=8, help="NMF topic count")
    p.add_argument("--restarts", type=int, default=4, help="NMF restarts")
    p.add_argument("--run-id",
                   help="journal every stage under this id (implies caching) "
                        "so a killed run can be resumed")
    p.add_argument("--resume", metavar="RUN_ID",
                   help="resume a journaled run: committed stages are "
                        "digest-verified and skipped")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("inject", help="run the fault-injection campaign")
    p.add_argument("--seeds", type=int, default=3, help="seeds per fault")
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("chaos", help="run a chaos fuzzing campaign")
    p.add_argument("--build", choices=["buggy", "patched", "hardened"],
                   default="patched")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", type=int, default=10, help="findings to print")
    p.add_argument("--resilient", action="store_true",
                   help="build scenarios with the resilience runtime enabled")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "resilience", help="A/B fault campaign: bare vs resilience runtime"
    )
    p.add_argument("--seeds", type=int, default=3, help="seeds per fault")
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser(
        "adversary",
        help="control-plane adversary: violate an invariant, minimize the trace",
    )
    p.add_argument("--seed", type=int, default=0, help="first schedule seed to try")
    p.add_argument("--events", type=int, default=20, help="events per schedule")
    p.add_argument("--hardened", action="store_true",
                   help="run against the hardened control plane")
    p.add_argument("--ab", action="store_true",
                   help="adversarial A/B: bare vs hardened over many schedules")
    p.add_argument("--schedules", type=int, default=5,
                   help="schedules for --ab mode")
    p.add_argument("--trace-out", help="write the minimized trace JSON here")
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided fault-schedule fuzzing over a parameterized "
             "topology",
    )
    p.add_argument("--controllers", type=int, default=5)
    p.add_argument("--switches", type=int, default=20)
    p.add_argument("--flows", type=int, help="workload flows (default: one per switch)")
    p.add_argument("--topology", choices=["ring", "star", "fattree"],
                   default="ring")
    p.add_argument("--budget", type=int, default=200,
                   help="total schedules to execute")
    p.add_argument("--batch", type=int, default=20, help="schedules per batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=40.0,
                   help="simulated seconds per schedule")
    p.add_argument("--jobs", type=int, default=1, help="work-pool width")
    p.add_argument("--hardened", action="store_true",
                   help="fuzz the hardened control plane")
    p.add_argument("--random", action="store_true",
                   help="disable coverage guidance (pure-random baseline)")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip ddmin reproducer minimization")
    p.add_argument("--run-dir", default="benchmarks/artifacts/fuzz",
                   help="journal + snapshots + coverage map live here")
    p.add_argument("--resume", action="store_true",
                   help="resume the journaled campaign in --run-dir")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "ingest",
        help="fault-tolerant streaming ingestion of tracker events "
             "(journaled, exactly-once, dead-lettered)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=20000,
                   help="base events in the synthetic stream")
    p.add_argument("--batch", type=int, default=2048,
                   help="base events per journaled batch")
    p.add_argument("--block", type=int, default=64,
                   help="base events per fetch block")
    p.add_argument("--pool", type=int, default=5000,
                   help="distinct synthetic bug ids")
    p.add_argument("--outage-rate", type=float, default=0.1,
                   help="per-block probability of an upstream outage")
    p.add_argument("--outage-depth", type=int, default=2,
                   help="max consecutive attempts an outage eats")
    p.add_argument("--rate-limit-rate", type=float, default=0.05,
                   help="per-block probability of throttling")
    p.add_argument("--corrupt-rate", type=float, default=0.01,
                   help="per-record probability of corruption")
    p.add_argument("--duplicate-rate", type=float, default=0.05,
                   help="per-record probability of duplicate delivery")
    p.add_argument("--reorder-rate", type=float, default=0.2,
                   help="per-block probability of delivery reordering")
    p.add_argument("--queue-capacity", type=int, default=256,
                   help="backpressure queue bound (records)")
    p.add_argument("--retry-attempts", type=int, default=4,
                   help="retries granted per block after the first attempt")
    p.add_argument("--no-learn", action="store_true",
                   help="disable the online partial_fit learner")
    p.add_argument("--run-dir", default="benchmarks/artifacts/ingest",
                   help="journal + snapshots + DLQ + metrics live here")
    p.add_argument("--resume", action="store_true",
                   help="resume the journaled run in --run-dir")
    p.add_argument("--replay-dlq", action="store_true",
                   help="leniently replay the dead-letter queue instead of "
                        "ingesting")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser(
        "lint",
        help="run sdnlint: taxonomy-mapped AST bug-pattern checks",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to scan (default: the repro package)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="also write the JSON report to this file")
    p.add_argument("--baseline", default="lint-baseline.json",
                   help="known-debt file; 'none' disables suppression")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept every current finding as debt and exit")
    p.add_argument("--fail-on", choices=["error", "warning", "never"],
                   default="error",
                   help="exit 1 if any unsuppressed finding is at or above "
                        "this severity")
    p.add_argument("--interprocedural", action="store_true",
                   help="also run the dataflow.* detectors over a "
                        "project-wide call graph with taint propagation")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for summary extraction "
                        "(reports are byte-identical for any value)")
    p.add_argument("--summary-cache", default="benchmarks/artifacts/cache",
                   help="ArtifactCache root for content-keyed module "
                        "summaries; 'none' disables caching")
    p.add_argument("--spans-out",
                   help="write the per-phase/per-worker span tree of the "
                        "interprocedural run to this JSONL file")
    p.add_argument("--smells", action="store_true",
                   help="also extract a CodeModel and run the Fig-8 smell "
                        "detectors over it")
    p.add_argument("--smell-kinds", nargs="+",
                   choices=["god_component", "unstable_dependency",
                            "hub_like_modularization",
                            "insufficient_modularization",
                            "broken_hierarchy", "missing_hierarchy"],
                   help="run only these smell detectors (implies --smells)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the overload-robust triage serving daemon over a seeded "
             "synthetic trace",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--duration", type=float, default=30.0,
                   help="simulated seconds of traffic")
    p.add_argument("--base-rate", type=float, default=6.0,
                   help="baseline arrivals per simulated second")
    p.add_argument("--burst-rate", type=float, default=40.0,
                   help="arrival rate inside burst windows")
    p.add_argument("--bursts", type=int, default=3,
                   help="number of burst windows")
    p.add_argument("--settle", type=float, default=120.0,
                   help="extra simulated seconds to drain queues")
    p.add_argument("--bare", action="store_true",
                   help="disable every protection (the collapse baseline)")
    p.add_argument("--ab", action="store_true",
                   help="run both arms and print the comparison")
    p.add_argument("--workdir", default="benchmarks/artifacts/serve",
                   help="request journal + lint workspace live here")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "metrics",
        help="render an observability report (journal spans + metrics "
             "exports) from a run directory",
    )
    p.add_argument("--run-dir", default="benchmarks/artifacts/serve",
                   help="directory (or single .jsonl file) to scan")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "trajectory",
        help="inspect or gate the persistent benchmark trajectory",
    )
    p.add_argument("--file", default="benchmarks/BENCH_trajectory.json",
                   help="baseline trajectory file")
    p.add_argument("--check", action="store_true",
                   help="evaluate regression gates (exit 2 on regression)")
    p.add_argument("--candidate",
                   help="candidate trajectory to gate against --file "
                        "(default: the baseline gates itself)")
    p.add_argument("--gate", action="append", metavar="BENCH:METRIC:DIR:TOL",
                   help="override gates, e.g. "
                        "serving_overload_ab:goodput_hardened:higher:0.1 "
                        "(repeatable)")
    p.set_defaults(fn=_cmd_trajectory)

    p = sub.add_parser("experiments", help="list reproducible artifacts")
    p.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # Library failures become a one-line diagnostic, never a traceback:
        # the CLI's own §IV lesson about error-message symptoms.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
