"""Orchestration: cached, parallel, incremental interprocedural lint.

The pipeline is phase-shaped and every phase is deterministic:

1. **load** — discover source files (sorted), read bytes, hash them.
   The warm path never calls ``ast.parse``: a module whose digest hits
   the summary cache goes straight from bytes to summary.
2. **summarize** — cache lookups happen in the parent (one process owns
   the cache directory); only misses fan out over the PR-3
   :class:`~repro.parallel.executor.WorkPool`, whose ``map`` returns in
   input order, so the summary list is a pure function of the file set
   regardless of ``jobs``.
3. **link** — module summaries join into one call graph and the taint /
   escape / lock / handle fixpoints run (all sorted iteration).
4. **detect** — the ``dataflow.*`` detectors read the linked facts and
   emit findings, sorted by the canonical finding key.

Because 2–4 only ever consume sorted inputs, ``--jobs 1`` and
``--jobs 4`` produce byte-identical reports; the per-worker spans (for
the observability plane) use the Tracer's deterministic tick clock and
a deterministic round-robin shard, so span trees are reproducible too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from repro._collector import _collector_paused
from repro.observability.spans import Span, Tracer
from repro.parallel.cache import DEFAULT_CACHE_ROOT, ArtifactCache
from repro.parallel.executor import WorkPool
from repro.staticanalysis.dataflow.callgraph import (
    CallGraph,
    build_call_graph,
)
from repro.staticanalysis.dataflow.detectors import (
    DataflowContext,
    default_dataflow_detectors,
)
from repro.staticanalysis.dataflow.summaries import (
    SUMMARY_VERSION,
    ModuleSummary,
    source_digest,
    summarize_module,
)
from repro.staticanalysis.dataflow.taint import TaintAnalysis
from repro.staticanalysis.loader import iter_source_files
from repro.staticanalysis.model import AnalysisReport, Finding

#: ArtifactCache namespace for module summaries.  The cache key is
#: (module name, source digest, SUMMARY_VERSION): any edit, rename, or
#: summarizer change misses; everything else hits without parsing.
CACHE_NAMESPACE = "dataflow-summary"


@_collector_paused()
def _summarize_task(path: str) -> ModuleSummary:
    """Module-level task function so the process backend can pickle it.

    Paused here as well as in :meth:`InterproceduralAnalyzer.run`: a
    worker that was not forked from the paused parent starts with the
    collector on.
    """
    return summarize_module(path)


@dataclass
class InterproceduralResult:
    """Everything one interprocedural run produced."""

    report: AnalysisReport
    graph: CallGraph
    taint: TaintAnalysis
    spans: list[Span] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class InterproceduralAnalyzer:
    """Configured entry point for ``repro lint --interprocedural``: every
    ``dataflow.*`` detector over ``DEFAULT_TAINT_SPEC``."""

    def __init__(
        self,
        *,
        root: str | Path | None = None,
        cache_root: str | Path | None = DEFAULT_CACHE_ROOT,
        jobs: int = 1,
    ) -> None:
        self.root = Path(root) if root is not None else Path.cwd()
        self.cache = (
            ArtifactCache(cache_root) if cache_root is not None else None
        )
        self.jobs = max(1, jobs)

    # -- phases ----------------------------------------------------------------
    @_collector_paused()
    def run(self, paths: Iterable[str | Path]) -> InterproceduralResult:
        tracer = Tracer("interprocedural-lint")
        root_span = tracer.start("interprocedural-lint", kind="run")

        load_span = tracer.start("load", parent_id=root_span.span_id)
        files = list(iter_source_files(paths))
        sources: dict[str, str] = {}
        digests: dict[str, str] = {}
        for file in files:
            posix = file.as_posix()
            sources[posix] = file.read_text(encoding="utf-8")
            digests[posix] = source_digest(sources[posix])
        tracer.end(load_span)

        summarize_span = tracer.start(
            "summarize",
            parent_id=root_span.span_id,
            attrs={"files": len(files)},
        )
        summaries, hits, misses = self._summaries(
            files, sources, digests, tracer, summarize_span
        )
        tracer.end(summarize_span)

        link_span = tracer.start("link", parent_id=root_span.span_id)
        graph = build_call_graph(summaries)
        taint = TaintAnalysis(graph, self.root.resolve()).run()
        tracer.end(link_span)

        detect_span = tracer.start("detect", parent_id=root_span.span_id)
        ctx = DataflowContext(
            graph=graph,
            taint=taint,
            root=self.root.resolve(),
            source_lines={
                path: tuple(text.splitlines())
                for path, text in sources.items()
            },
        )
        findings: list[Finding] = []
        for detector in default_dataflow_detectors():
            span = tracer.start(
                f"detect:{detector.id}", parent_id=detect_span.span_id
            )
            emitted = list(detector.findings(ctx))
            findings.extend(emitted)
            tracer.end(span)
        tracer.end(detect_span)
        tracer.end(root_span)

        findings.sort(key=Finding.sort_key)
        report = AnalysisReport(
            root=str(self.root.resolve()),
            findings=findings,
            modules_scanned=len(files),
        )
        resolved_edges = sum(
            1
            for qualname in graph.edges
            for _, target in graph.edges[qualname]
            if target is not None
        )
        stats = {
            "modules": len(files),
            "functions": len(graph.functions),
            "resolved_edges": resolved_edges,
            "cache_hits": hits,
            "cache_misses": misses,
            "jobs": self.jobs,
        }
        return InterproceduralResult(
            report=report,
            graph=graph,
            taint=taint,
            spans=tracer.finished(),
            stats=stats,
        )

    def _summaries(
        self,
        files: list[Path],
        sources: dict[str, str],
        digests: dict[str, str],
        tracer: Tracer,
        parent: Span,
    ) -> tuple[list[ModuleSummary], int, int]:
        """Summaries for ``files`` in file order: cache hits from the
        parent process, misses fanned out over the WorkPool."""
        from repro.staticanalysis.loader import module_name_for

        slots: list[ModuleSummary | None] = [None] * len(files)
        miss_indices: list[int] = []
        hits = 0
        for index, file in enumerate(files):
            posix = file.as_posix()
            name, _ = module_name_for(file)
            params = self._cache_params(name, digests[posix])
            if self.cache is not None:
                cached, found = self.cache.lookup(CACHE_NAMESPACE, params)
                if found and isinstance(cached, ModuleSummary):
                    if cached.path != posix:
                        # Same content at a new location (checkout moved):
                        # the summary is valid, only its path label moved.
                        cached = replace(cached, path=posix)
                    slots[index] = cached
                    hits += 1
                    continue
            miss_indices.append(index)

        if miss_indices:
            miss_paths = [files[i].as_posix() for i in miss_indices]
            pool = WorkPool(self.jobs)
            computed = pool.map(_summarize_task, miss_paths)
            # Deterministic round-robin shard = per-worker attribution
            # for the spans (dispatch order, not completion order — the
            # only order that is a pure function of the input set).
            worker_spans: dict[int, Span] = {}
            for worker in range(min(self.jobs, len(miss_paths))):
                worker_spans[worker] = tracer.start(
                    f"worker-{worker}",
                    parent_id=parent.span_id,
                    attrs={
                        "modules": len(
                            range(worker, len(miss_paths), self.jobs)
                        )
                    },
                )
            for position, (index, summary) in enumerate(
                zip(miss_indices, computed)
            ):
                worker = position % self.jobs
                module_span = tracer.start(
                    summary.name,
                    parent_id=worker_spans[worker].span_id,
                    attrs={"digest": summary.digest[:12]},
                )
                tracer.end(module_span)
                slots[index] = summary
                if self.cache is not None:
                    params = self._cache_params(
                        summary.name, summary.digest
                    )
                    self.cache.put(CACHE_NAMESPACE, params, summary)
            for worker in sorted(worker_spans):
                tracer.end(worker_spans[worker])

        summaries = [slot for slot in slots if slot is not None]
        return summaries, hits, len(miss_indices)

    @staticmethod
    def _cache_params(module_name: str, digest: str) -> dict:
        return {
            "module": module_name,
            "digest": digest,
            "version": SUMMARY_VERSION,
        }


def run_interprocedural(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    cache_root: str | Path | None = DEFAULT_CACHE_ROOT,
    jobs: int = 1,
) -> InterproceduralResult:
    """One-shot convenience wrapper around :class:`InterproceduralAnalyzer`."""
    return InterproceduralAnalyzer(
        root=root, cache_root=cache_root, jobs=jobs
    ).run(paths)
