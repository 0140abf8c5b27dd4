"""Overload-robust triage serving: the paper's bug classes, inverted.

The DSN'21 study's overload findings — unbounded queues, missing
backpressure, head-of-line blocking behind slow peers, work completed
after its deadline — are each inverted into an explicit mechanism here:
bounded cost-aware admission (:mod:`admission`), deadline propagation
with in-queue cancellation and graceful degradation tiers
(:mod:`daemon`), micro-batched execution (:mod:`backends`), a journaled
request log (:mod:`requestlog`), seeded fault-injecting traffic
(:mod:`traffic`) and the A/B harness that proves the hardened daemon
beats the bare one under the same overload (:mod:`ab`).
"""

from repro.serving.ab import (
    ABReport,
    ArmReport,
    fingerprint,
    goodput,
    percentile,
    run_ab,
    run_arm,
)
from repro.serving.admission import AdmissionController, AdmissionVerdict
from repro.serving.backends import (
    BatchOutcome,
    HeuristicClassifier,
    StubBackend,
    TriageBackend,
)
from repro.serving.daemon import ServingDaemon, ServingStats
from repro.serving.request import (
    ANSWERED,
    DEFAULT_BUDGETS,
    KIND_CLASS,
    KIND_COSTS,
    CostModel,
    Request,
    RequestClass,
    RequestFactory,
    RequestKind,
    Response,
    ResponseStatus,
    ServiceTier,
)
from repro.serving.requestlog import RequestLog, recover
from repro.serving.traffic import Trace, TrafficConfig, generate_trace, replay

__all__ = [
    "ABReport",
    "ANSWERED",
    "AdmissionController",
    "AdmissionVerdict",
    "ArmReport",
    "BatchOutcome",
    "CostModel",
    "DEFAULT_BUDGETS",
    "HeuristicClassifier",
    "KIND_CLASS",
    "KIND_COSTS",
    "Request",
    "RequestClass",
    "RequestFactory",
    "RequestKind",
    "RequestLog",
    "Response",
    "ResponseStatus",
    "ServiceTier",
    "ServingDaemon",
    "ServingStats",
    "StubBackend",
    "Trace",
    "TrafficConfig",
    "TriageBackend",
    "fingerprint",
    "generate_trace",
    "goodput",
    "percentile",
    "recover",
    "replay",
    "run_ab",
    "run_arm",
]
