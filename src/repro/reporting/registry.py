"""Experiment registry: maps every paper table/figure to its bench."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    exp_id: str
    paper_artifact: str
    description: str
    bench: str
    modules: tuple[str, ...]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "dataset",
        "SS II-B",
        "critical bug counts per controller; bursts near releases",
        "benchmarks/bench_dataset.py",
        ("repro.corpus", "repro.trackers"),
    ),
    Experiment(
        "nlp-validation",
        "SS II-C2",
        "SVM 96% bug-type / 86% symptom accuracy; fixes unpredictable",
        "benchmarks/bench_nlp_validation.py",
        ("repro.pipeline", "repro.ml", "repro.embeddings"),
    ),
    Experiment(
        "determinism",
        "SS III (RQ1)",
        "determinism: FAUCET 96%, ONOS 94%, CORD 94%",
        "benchmarks/bench_determinism.py",
        ("repro.analysis.determinism",),
    ),
    Experiment(
        "symptoms",
        "SS IV / Fig 2",
        "symptom marginals + per-controller root causes per symptom",
        "benchmarks/bench_symptoms.py",
        ("repro.analysis.symptoms",),
    ),
    Experiment(
        "triggers",
        "SS V-A",
        "trigger marginals; config-fix 25%; compatibility fixes 41.4%",
        "benchmarks/bench_triggers.py",
        ("repro.analysis.triggers",),
    ),
    Experiment(
        "config-subcategories",
        "Table III",
        "configuration bug sub-categories per controller",
        "benchmarks/bench_config_subcategories.py",
        ("repro.analysis.triggers",),
    ),
    Experiment(
        "vulnerabilities",
        "Table III-b / SS V-A",
        "ONOS dependency vulnerabilities grow across releases",
        "benchmarks/bench_vulnerabilities.py",
        ("repro.vuln",),
    ),
    Experiment(
        "resolution-cdf",
        "SS V-B / Fig 7",
        "resolution-time CDFs per trigger; config longest tail",
        "benchmarks/bench_resolution_cdf.py",
        ("repro.analysis.resolution",),
    ),
    Experiment(
        "smells",
        "SS VI-A / Fig 8",
        "six code smells across ONOS releases 1.12-2.3",
        "benchmarks/bench_smells.py",
        ("repro.smells", "repro.codebase"),
    ),
    Experiment(
        "commits",
        "Fig 10",
        "ONOS commits per release decline after 1.14",
        "benchmarks/bench_commits.py",
        ("repro.gitmodel",),
    ),
    Experiment(
        "burn-analysis",
        "SS VI-B / Fig 11",
        "FAUCET commit split 38/35/27 across subsystems",
        "benchmarks/bench_burn_analysis.py",
        ("repro.gitmodel.burn",),
    ),
    Experiment(
        "dependency-burndown",
        "Table IV",
        "FAUCET dependency version churn (ryu 28, chewie 19, ...)",
        "benchmarks/bench_dependency_burndown.py",
        ("repro.gitmodel.deps",),
    ),
    Experiment(
        "correlation",
        "SS VII-B / Fig 12",
        "CDF of category correlations; 6.28% strongly correlated tail",
        "benchmarks/bench_correlation.py",
        ("repro.analysis.correlation",),
    ),
    Experiment(
        "whole-dataset",
        "SS VII-B / Fig 13",
        "predicted trigger distribution over the whole dataset",
        "benchmarks/bench_whole_dataset.py",
        ("repro.pipeline", "repro.analysis.triggers"),
    ),
    Experiment(
        "topic-uniqueness",
        "SS VII-B / Fig 14",
        "topic uniqueness of deterministic/byzantine/add-sync/third-party",
        "benchmarks/bench_topic_uniqueness.py",
        ("repro.analysis.topics",),
    ),
    Experiment(
        "controller-selection",
        "SS VII-A (RQ4)",
        "controller stability ranking (ONOS recommended)",
        "benchmarks/bench_controller_selection.py",
        ("repro.guidance.selection",),
    ),
    Experiment(
        "framework-coverage",
        "Table VI / SS VII-C (RQ5)",
        "framework detect/recover coverage; deterministic recovery gap",
        "benchmarks/bench_framework_coverage.py",
        ("repro.frameworks",),
    ),
    Experiment(
        "cross-domain",
        "Table VII",
        "symptom shares: SDN vs Cloud vs BGP",
        "benchmarks/bench_cross_domain.py",
        ("repro.analysis.symptoms",),
    ),
    Experiment(
        "fault-campaign",
        "RQ5 mechanical validation",
        "taxonomy-driven fault injection; named case studies buggy vs fixed",
        "benchmarks/bench_fault_campaign.py",
        ("repro.sdnsim", "repro.faultinjection", "repro.frameworks"),
    ),
    # -- extensions: the research directions the paper calls for -------------
    Experiment(
        "chaos-fuzzing",
        "SS V-A takeaway (extension)",
        "Chaos-Monkey fuzzing across buggy/patched/hardened builds",
        "benchmarks/bench_chaos_fuzzing.py",
        ("repro.chaos", "repro.sdnsim"),
    ),
    Experiment(
        "topic-models",
        "SS II-C design choice (ablation)",
        "NMF vs LDA keyword extraction: purity and fit time",
        "benchmarks/bench_topic_models.py",
        ("repro.ml.nmf", "repro.ml.lda", "repro.textmining"),
    ),
    Experiment(
        "failure-prediction",
        "SS IV research direction (extension)",
        "telemetry-based crash prediction: load/memory predictable, logic not",
        "benchmarks/bench_failure_prediction.py",
        ("repro.prediction", "repro.ml.logistic"),
    ),
    Experiment(
        "patch-classification",
        "SS II-C1 (extension)",
        "fix strategies classifiable from patch metadata, not descriptions",
        "benchmarks/bench_patch_classification.py",
        ("repro.pipeline.patchclassifier",),
    ),
    Experiment(
        "composition",
        "SS VII-C composition takeaway",
        "framework stacking conflicts (SPHINX x Bouncer; SOFT vs CHIMP)",
        "benchmarks/bench_composition.py",
        ("repro.frameworks.composition",),
    ),
    Experiment(
        "severity-extraction",
        "SS II-B methodology",
        "keyword severity recall on FAUCET GitHub issues",
        "benchmarks/bench_severity_extraction.py",
        ("repro.trackers.severity",),
    ),
    Experiment(
        "robustness",
        "SS VIII threats (ablation)",
        "annotator noise, sample-size sensitivity, cross-controller transfer",
        "benchmarks/bench_robustness.py",
        ("repro.pipeline.robustness",),
    ),
    Experiment(
        "resilience",
        "SS VII-C takeaway (extension)",
        "A/B fault campaign: resilience runtime absorbs non-deterministic "
        "faults only",
        "benchmarks/bench_resilience.py",
        ("repro.resilience", "repro.faultinjection", "repro.chaos"),
    ),
    Experiment(
        "adversary",
        "SS VII-C frameworks (extension)",
        "control-plane adversary: invariant violations minimized to STS-style "
        "reproducers; bare vs hardened A/B",
        "benchmarks/bench_adversary.py",
        ("repro.adversary", "repro.faultinjection", "repro.frameworks"),
    ),
    Experiment(
        "parallel-pipeline",
        "SS II-C scaling (extension)",
        "parallel + cached NLP pipeline: jobs=4 SVM fan-out and warm-cache "
        "replay, bit-for-bit equal to the serial run",
        "benchmarks/bench_parallel_pipeline.py",
        ("repro.parallel", "repro.pipeline", "repro.ml"),
    ),
    Experiment(
        "crash-recovery",
        "SS VII-C recovery discipline (extension)",
        "kill-injection campaign: journaled pipeline SIGKILLed at each "
        "event offset resumes bit-for-bit; torn checkpoints quarantined",
        "benchmarks/bench_crash_recovery.py",
        ("repro.recovery", "repro.parallel", "repro.pipeline"),
    ),
    Experiment(
        "static-analysis",
        "Table I as checks (extension)",
        "sdnlint self-scan: taxonomy-mapped AST detectors over src/repro; "
        "Fig-8 smells on the extracted CodeModel",
        "benchmarks/bench_staticanalysis.py",
        ("repro.staticanalysis", "repro.smells"),
    ),
    Experiment(
        "coverage-fuzzing",
        "SS V-A test environments (extension)",
        "coverage-guided fault-schedule fuzzer on a 10x200 fat-tree: "
        ">=1.5x the distinct violation signatures of pure-random under "
        "equal budget; every class ships a ddmin reproducer",
        "benchmarks/bench_coverage_fuzzer.py",
        ("repro.fuzzing", "repro.adversary", "repro.parallel", "repro.recovery"),
    ),
    Experiment(
        "serving-overload",
        "SS IV load/overload bugs (extension)",
        "overload A/B on the serving daemon: admission control + deadline "
        "propagation + degradation tiers hold goodput >=1.5x a bare queue "
        "under the same bursty trace, p99 inside the deadline budget, "
        "every drop priced in the resilience ledger",
        "benchmarks/bench_serving.py",
        ("repro.serving", "repro.resilience", "repro.parallel", "repro.recovery"),
    ),
    Experiment(
        "streaming-ingest",
        "SS II-B at stream scale (extension)",
        "fault-tolerant streaming ingestion: >=1M synthetic tracker events "
        "under outages/corruption/duplication with exact accounting "
        "(applied + deduped + dead-lettered == emitted), SIGKILL-resume "
        "bit-identity, and a partial_fit SVM within 2 points of batch",
        "benchmarks/bench_streaming_ingest.py",
        ("repro.stream", "repro.resilience", "repro.recovery",
         "repro.observability"),
    ),
    Experiment(
        "observability-trajectory",
        "the paper's measurement method, inward (extension)",
        "metrics + span plane over the runtime: deterministic registries, "
        "journal-derived span trees bit-identical across kill/resume, and "
        "a gated goodput/p99 trajectory in BENCH_trajectory.json",
        "benchmarks/bench_serving.py",
        ("repro.observability", "repro.serving", "repro.recovery"),
    ),
)
