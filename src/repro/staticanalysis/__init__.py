"""sdnlint: AST bug-pattern analysis mapped to the paper's Table I taxonomy.

Two halves, both feeding the same study vocabulary:

* **Taxonomy detectors** (:mod:`repro.staticanalysis.checks`) — concrete
  Python patterns for the root-cause classes the paper measured:
  nondeterminism (unseeded RNG, wall clocks, hash-order leaks), missing
  error-handling logic, concurrency (lock-order cycles, unlocked shared
  writes from pool tasks), and resource/durability handling.
* **CodeModel extraction** (:mod:`repro.staticanalysis.extract`) — lowers
  real Python packages into :class:`repro.smells.CodeModel`, so the Fig-8
  architecture/design smell detectors run over this repo's own source.
* **Interprocedural dataflow** (:mod:`repro.staticanalysis.dataflow`) —
  a project-wide call graph, cached per-module summaries, and a taint
  lattice powering the ``dataflow.*`` detector family
  (``--interprocedural --jobs N``).

CLI: ``python -m repro lint [paths] [--format json] [--fail-on error]``.
"""

from repro.staticanalysis.baseline import (
    apply_baseline,
    baseline_key,
    load_baseline,
    write_baseline,
)
from repro.staticanalysis.checks import (
    DETECTOR_TYPES,
    AnalysisContext,
    Detector,
    default_detectors,
    detector_ids,
)
from repro.staticanalysis.dataflow import (
    InterproceduralAnalyzer,
    dataflow_detector_ids,
    run_interprocedural,
)
from repro.staticanalysis.engine import Analyzer, run_lint
from repro.staticanalysis.loader import ModuleInfo, load_module, load_paths
from repro.staticanalysis.model import AnalysisReport, Finding, Severity
from repro.staticanalysis.reporters import to_json, to_text

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "Analyzer",
    "DETECTOR_TYPES",
    "Detector",
    "Finding",
    "InterproceduralAnalyzer",
    "ModuleInfo",
    "Severity",
    "apply_baseline",
    "baseline_key",
    "dataflow_detector_ids",
    "default_detectors",
    "detector_ids",
    "load_baseline",
    "load_module",
    "load_paths",
    "run_interprocedural",
    "run_lint",
    "to_json",
    "to_text",
    "write_baseline",
]
