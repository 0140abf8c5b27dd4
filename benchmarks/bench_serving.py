"""Overload A/B evidence for the serving daemon (extension).

The paper's overload bug classes — unbounded queues, no backpressure,
head-of-line blocking behind slow peers, work completed after its
deadline — are inverted into explicit mechanisms in
:mod:`repro.serving`.  This bench is the acceptance gate for that claim:

* under the same seeded bursty heavy-tail trace (with slow-client and
  poison faults injected), the hardened daemon's goodput is >= 1.5x the
  bare daemon's (it is far higher in practice, because the bare arm
  spends the burst windows computing answers nobody can use anymore);
* the hardened arm's p99 answered latency stays inside the largest
  configured deadline budget, while the bare arm's p99 blows past it;
* every deliberately dropped request (shed or expired) carries a priced
  resilience-ledger entry — nothing vanishes silently;
* the whole replay is bit-for-bit deterministic: two same-seed runs
  produce identical response-stream fingerprints.

Results land in ``benchmarks/BENCH_trajectory.json`` so future PRs can
see whether the goodput/p99 trajectory regressed.
"""

from __future__ import annotations

import json
import pathlib

from conftest import once

from repro.observability.trajectory import TrajectoryStore
from repro.serving import (
    DEFAULT_BUDGETS,
    StubBackend,
    TrafficConfig,
    TriageBackend,
    run_ab,
    run_arm,
)

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"
TRAJECTORY = pathlib.Path(__file__).parent / "BENCH_trajectory.json"

#: The gate trace: 60 simulated seconds, three flash-crowd bursts,
#: slow clients and poison payloads injected.
GATE_TRAFFIC = TrafficConfig(
    seed=2020,
    duration=60.0,
    base_rate=6.0,
    burst_rate=40.0,
    bursts=3,
    burst_length=4.0,
    slow_client_rate=0.03,
    poison_rate=0.02,
)


def test_bench_overload_ab_gate(benchmark, tmp_path):
    """Hardened >= 1.5x bare goodput; p99 bounded; drops all priced."""

    def run():
        return run_ab(
            lambda: TriageBackend(seed=2020, lint_workspace=tmp_path / "lint"),
            traffic=GATE_TRAFFIC,
        )

    report = once(benchmark, run)
    hardened, bare = report.hardened, report.bare
    print()
    print(f"trace: {report.trace_requests} requests over "
          f"{report.duration:.0f}s simulated")
    for arm in (hardened, bare):
        print(f"  {arm.name:9s} goodput {arm.goodput:7.3f}/s  "
              f"p50 {arm.p50:7.3f}s  p99 {arm.p99:7.3f}s  "
              f"answered {arm.answered}  in-deadline {arm.deadline_met}")
    print(f"  ratio {report.goodput_ratio:.2f}x")

    # Gate 1: goodput ratio.
    assert report.goodput_ratio >= 1.5, (
        f"hardened goodput only {report.goodput_ratio:.2f}x bare"
    )
    # Gate 2: hardened p99 stays inside the largest deadline budget; the
    # bare arm demonstrably does not (that is the collapse being shown).
    max_budget = max(DEFAULT_BUDGETS.values())
    assert hardened.p99 <= max_budget, (
        f"hardened p99 {hardened.p99:.2f}s exceeds max budget {max_budget}s"
    )
    assert bare.p99 > max_budget, (
        "bare arm unexpectedly met deadlines; the overload trace is too soft"
    )
    # Gate 3: accounting — no silent drops.
    assert hardened.unaccounted_drops == 0
    # Gate 4: protections actually fired under this trace.
    assert hardened.stats["shed"] > 0
    assert hardened.stats["served_heuristic"] > 0
    assert hardened.stats["slow_clients_aborted"] > 0

    _record_trajectory(report)
    out = ARTIFACTS / "serving_ab.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    # Full observability export (daemon metrics + ledger bridge) per arm —
    # the artifact CI uploads alongside the summary.
    metrics_out = ARTIFACTS / "serving_metrics.jsonl"
    metrics_out.write_text(
        hardened.metrics_jsonl + bare.metrics_jsonl, encoding="utf-8"
    )


def test_bench_replay_determinism(benchmark):
    """Two same-seed runs produce identical response fingerprints."""

    def run():
        first, _ = run_arm(
            name="run1", hardened=True, backend=StubBackend(),
            traffic=GATE_TRAFFIC,
        )
        second, _ = run_arm(
            name="run2", hardened=True, backend=StubBackend(),
            traffic=GATE_TRAFFIC,
        )
        return first, second

    first, second = once(benchmark, run)
    print()
    print(f"fingerprint: {first.fingerprint[:16]}... x2")
    assert first.fingerprint == second.fingerprint
    assert first.stats == second.stats


def _record_trajectory(report) -> None:
    """Refresh this bench's entry in the committed trajectory file.

    One entry per bench id (reruns replace in place; history stays in
    git); CI gates the refreshed file against the committed baseline with
    ``repro trajectory --check``.
    """
    entry = {
        "bench": "serving_overload_ab",
        "trace_requests": report.trace_requests,
        "duration": report.duration,
        "goodput_hardened": round(report.hardened.goodput, 6),
        "goodput_bare": round(report.bare.goodput, 6),
        "goodput_ratio": round(report.goodput_ratio, 6),
        "p99_hardened": round(report.hardened.p99, 6),
        "p99_bare": round(report.bare.p99, 6),
        "shed": report.hardened.stats["shed"],
        "expired": report.hardened.stats["expired"],
        "degraded": report.hardened.stats["served_heuristic"],
    }
    TrajectoryStore(TRAJECTORY).record(entry)
