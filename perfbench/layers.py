"""Which public calls the traced run times, and the per-layer metrics.

A layer is a repo module; every metric is named ``<module>.<what>``.  Each
wrapper is patched at the name its caller looks up, so a module that did
``from x import f`` is patched at its own ``f``.  ``staticanalysis`` metrics
are reported once per lint pass, as ``staticanalysis.cold.*`` and
``staticanalysis.relint.*``.
"""

from __future__ import annotations

import importlib
import statistics
from pathlib import Path

from tracing import Patcher, Tracer, call_counts, self_times

MIB = 2.0 ** 20

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("corpus.generate_s", "s", "lower"),
    ("textmining.tokenize_s", "s", "lower"),
    ("textmining.stem_s", "s", "lower"),
    ("textmining.stem_calls", "count", "lower"),
    ("textmining.stem_repeat_ratio", "ratio", "lower"),
    ("textmining.tfidf_s", "s", "lower"),
    ("textmining.tfidf_cells", "count", "lower"),
    ("textmining.tfidf_nnz_ratio", "ratio", "higher"),
    ("embeddings.word2vec_s", "s", "lower"),
    ("embeddings.word2vec_tokens", "count", "lower"),
    ("embeddings.docvec_s", "s", "lower"),
    ("ml.svm_s", "s", "lower"),
    ("ml.nmf_s", "s", "lower"),
    ("ml.tree_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.cache_put_mb", "MiB", "lower"),
    ("parallel.cache_lookup_s", "s", "lower"),
    ("parallel.cache_hit_ratio", "ratio", "higher"),
    ("recovery.journal_s", "s", "lower"),
    ("recovery.appends", "count", "lower"),
    ("recovery.fsyncs", "count", "lower"),
    ("recovery.fsync_s", "s", "lower"),
    ("stream.fetch_s", "s", "lower"),
    ("stream.blocks", "count", "lower"),
    ("stream.retries", "count", "lower"),
    ("stream.give_ups", "count", "lower"),
    ("stream.parse_s", "s", "lower"),
    ("stream.records", "count", "higher"),
    ("stream.digest_s", "s", "lower"),
    ("stream.apply_s", "s", "lower"),
    ("stream.dedup_ratio", "ratio", "lower"),
    ("stream.learn_s", "s", "lower"),
    ("stream.trained", "count", "higher"),
    ("stream.snapshot_s", "s", "lower"),
    ("stream.snapshots", "count", "lower"),
    ("stream.snapshot_mb", "MiB", "lower"),
    ("stream.dlq_s", "s", "lower"),
    ("stream.dead_lettered", "count", "lower"),
    ("stream.self_s", "s", "lower"),
    *[
        (f"staticanalysis.{phase}.{what}", unit, better)
        for phase in ("cold", "relint")
        for what, unit, better in (
            ("load_s", "s", "lower"),
            ("modules", "count", "higher"),
            ("checks_s", "s", "lower"),
            ("summarize_s", "s", "lower"),
            ("summarized", "count", "lower"),
            ("link_s", "s", "lower"),
            ("functions", "count", "higher"),
            ("edges", "count", "higher"),
            ("detect_s", "s", "lower"),
            ("findings", "count", "lower"),
            ("self_s", "s", "lower"),
        )
    ],
    ("fuzzing.self_s", "s", "lower"),
    ("fuzzing.mutate_s", "s", "lower"),
    ("fuzzing.features_s", "s", "lower"),
    ("fuzzing.coverage_s", "s", "lower"),
    ("fuzzing.snapshot_s", "s", "lower"),
    ("fuzzing.executed", "count", "higher"),
    ("fuzzing.novel_ratio", "ratio", "higher"),
    ("fuzzing.signatures", "count", "higher"),
    ("adversary.replay_s", "s", "lower"),
    ("adversary.replays", "count", "lower"),
    ("adversary.minimize_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
]
PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: (module, attribute path, span name, hot) for the calls timed one by one.
TARGETS: list[tuple[str, str, str, bool]] = [
    ("repro.corpus.generator", "CorpusGenerator.generate", "corpus.generate", False),
    ("repro.textmining.tokenizer", "Tokenizer.tokenize_all", "textmining.tokenize", False),
    ("repro.textmining.stemmer", "PorterStemmer.stem", "textmining.stem", True),
    ("repro.textmining.tfidf", "TfidfVectorizer.fit", "textmining.tfidf", False),
    ("repro.textmining.tfidf", "TfidfVectorizer.transform", "textmining.tfidf", False),
    ("repro.embeddings.word2vec", "Word2Vec.fit", "embeddings.word2vec", False),
    ("repro.embeddings.docvec", "DocumentVectorizer.transform", "embeddings.docvec", False),
    ("repro.ml.svm", "LinearSVM.fit", "ml.svm", False),
    ("repro.ml.svm", "LinearSVM.predict", "ml.svm", False),
    ("repro.ml.nmf", "nmf_multi_restart", "ml.nmf", False),
    ("repro.ml.tree", "DecisionTreeClassifier.fit", "ml.tree", False),
    ("repro.ml.tree", "DecisionTreeClassifier.predict", "ml.tree", False),
    ("repro.pipeline.scaling", "run_pipeline", "pipeline.self", False),
    ("repro.pipeline.scaling", "validate_pipeline", "pipeline.self", False),
    ("repro.pipeline.autoclassifier", "AutoClassifier.fit", "pipeline.self", False),
    ("repro.pipeline.autoclassifier", "AutoClassifier.predict", "pipeline.self", False),
    ("repro.parallel.cache", "ArtifactCache.put", "parallel.cache_put", False),
    ("repro.parallel.cache", "ArtifactCache.lookup", "parallel.cache_lookup", False),
    ("repro.recovery.journal", "RunJournal.append", "recovery.journal", False),
    ("os", "fsync", "recovery.fsync", False),
    ("repro.stream.flaky", "FlakySource.fetch", "stream.fetch", False),
    ("repro.stream.ingest", "parse_wire", "stream.parse", True),
    ("repro.stream.events", "TrackerEvent.digest_int", "stream.digest", True),
    ("repro.stream.state", "StreamState.apply", "stream.apply", True),
    ("repro.stream.online", "HashingVectorizer.transform_tokens", "stream.learn", False),
    ("repro.stream.online", "OnlineLinearSVM.partial_fit", "stream.learn", False),
    ("repro.stream.ingest", "save_state", "stream.snapshot", False),
    ("repro.stream.dlq", "DeadLetterQueue.put", "stream.dlq", False),
    ("repro.stream.ingest", "run_ingest", "stream.self", False),
    ("repro.staticanalysis.loader", "load_module", "staticanalysis.load", False),
    ("repro.staticanalysis.engine", "Analyzer.run", "staticanalysis.self", False),
    ("repro.staticanalysis.dataflow.engine", "summarize_module",
     "staticanalysis.summarize", False),
    ("repro.staticanalysis.dataflow.engine", "build_call_graph",
     "staticanalysis.link", False),
    ("repro.staticanalysis.dataflow.taint", "TaintAnalysis.run", "staticanalysis.link", False),
    ("repro.staticanalysis.dataflow.engine", "run_interprocedural",
     "staticanalysis.self", False),
    ("repro.fuzzing.campaign", "mutate", "fuzzing.mutate", False),
    ("repro.fuzzing.campaign", "schedule_features", "fuzzing.features", False),
    ("repro.fuzzing.campaign", "run_coverage", "fuzzing.coverage", False),
    ("repro.fuzzing.campaign", "save_state", "fuzzing.snapshot", False),
    ("repro.fuzzing.campaign", "run_campaign", "fuzzing.self", False),
    ("repro.fuzzing.campaign", "run_adversary", "adversary.replay", False),
    ("repro.fuzzing.campaign", "minimize_schedule", "adversary.minimize", False),
]


def _resolve(module: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _after_hooks(tracer: Tracer) -> dict[tuple[str, str], object]:
    """Counters the wrappers take from a call's arguments and result."""
    counters = tracer.counters
    stemmed: set[str] = set()

    def stem(_t, args, _kw, _result):
        word = args[1]
        if word in stemmed:
            counters["stem_repeats"] += 1
        else:
            stemmed.add(word)

    def tfidf_transform(_t, _args, _kw, matrix):
        counters["tfidf_cells"] += matrix.size
        counters["tfidf_nnz"] += int((matrix != 0).sum())

    def word2vec(_t, args, _kw, _result):
        model, documents = args[0], args[1]
        counters["word2vec_tokens"] += sum(len(doc) for doc in documents) * model.epochs

    def cache_put(_t, _args, _kw, path):
        counters["cache_put_bytes"] += Path(path).stat().st_size

    def cache_lookup(_t, _args, _kw, result):
        counters["cache_lookups"] += 1
        counters["cache_hits"] += 1 if result[1] else 0

    def stream_snapshot(_t, args, _kw, _result):
        counters["stream_snapshot_bytes"] += Path(args[1]).stat().st_size

    return {
        ("repro.textmining.stemmer", "PorterStemmer.stem"): stem,
        ("repro.textmining.tfidf", "TfidfVectorizer.transform"): tfidf_transform,
        ("repro.embeddings.word2vec", "Word2Vec.fit"): word2vec,
        ("repro.parallel.cache", "ArtifactCache.put"): cache_put,
        ("repro.parallel.cache", "ArtifactCache.lookup"): cache_lookup,
        ("repro.stream.ingest", "save_state"): stream_snapshot,
    }


def install(tracer: Tracer) -> Patcher:
    """Patch every target to record into ``tracer``; restore with the result."""
    from repro.staticanalysis.checks import DETECTOR_TYPES
    from repro.staticanalysis.dataflow.detectors import DATAFLOW_DETECTOR_TYPES

    hooks = _after_hooks(tracer)
    patcher = Patcher()
    try:
        for module, path, name, hot in TARGETS:
            owner, attr = _resolve(module, path)
            wrapped = tracer.wrap(getattr(owner, attr), name, hot=hot,
                                  after=hooks.get((module, path)))
            patcher.patch(owner, attr, wrapped)
        for cls in DETECTOR_TYPES:
            for attr in ("check_module", "finalize"):
                patcher.patch(cls, attr, tracer.wrap(getattr(cls, attr),
                                                     "staticanalysis.checks"))
        for cls in DATAFLOW_DETECTOR_TYPES:
            patcher.patch(cls, "findings", tracer.wrap(cls.findings,
                                                       "staticanalysis.detect"))
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _metric_name(phase: str, span: str) -> str:
    if span.startswith("staticanalysis.") and phase:
        return f"staticanalysis.{phase}.{span.split('.', 1)[1]}"
    return span


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(tracer: Tracer, counts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric for one traced unit (0 for untouched layers).

    ``counts`` holds what the workload read from the program's own results
    (state counters, report sizes), already under per-layer metric names.
    """
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)

    def add(name: str, value: float) -> None:
        if name not in metrics:
            raise KeyError(f"traced call produced unknown metric {name!r}")
        metrics[name] += value

    for (phase, span), seconds in self_times(tracer.spans).items():
        if span != "root":
            add(_metric_name(phase, span) + "_s", seconds)
    calls = call_counts(tracer.spans)

    def n(span: str, phase: str = "") -> int:
        return calls.get((phase, span), 0)

    c = tracer.counters
    stems = n("textmining.stem")
    add("textmining.stem_calls", stems)
    add("textmining.stem_repeat_ratio", _ratio(c["stem_repeats"], stems))
    add("textmining.tfidf_cells", c["tfidf_cells"])
    add("textmining.tfidf_nnz_ratio", _ratio(c["tfidf_nnz"], c["tfidf_cells"]))
    add("embeddings.word2vec_tokens", c["word2vec_tokens"])
    add("parallel.cache_put_mb", c["cache_put_bytes"] / MIB)
    add("parallel.cache_hit_ratio", _ratio(c["cache_hits"], c["cache_lookups"]))
    add("recovery.appends", n("recovery.journal"))
    add("recovery.fsyncs", n("recovery.fsync"))
    add("stream.snapshots", n("stream.snapshot"))
    add("stream.snapshot_mb", c["stream_snapshot_bytes"] / MIB)
    add("adversary.replays", n("adversary.replay"))
    for phase in ("cold", "relint"):
        add(f"staticanalysis.{phase}.summarized", n("staticanalysis.summarize", phase))
    for name, value in counts.items():
        add(name, value)
    return metrics


def combine(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced units."""
    return {
        name: statistics.median(unit[name] for unit in per_unit)
        for name in PER_LAYER_NAMES
    }
