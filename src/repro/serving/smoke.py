"""CI smoke run for the serving daemon.

Boots the hardened daemon with the real :class:`TriageBackend`, replays a
seeded 30-simulated-second bursty trace with slow-client and poison
faults injected, and asserts the overload contract held:

* zero unhandled exceptions (every submitted request reached exactly one
  terminal response);
* the protections actually fired — shed > 0 and degraded-tier answers > 0
  under this deliberately overloading trace;
* every deliberate drop was priced into the resilience ledger.

Run as ``python -m repro.serving.smoke [--out summary.json]``.  Exits 0
on success, 1 with a one-line reason on violation, and 2 with a one-line
error when the run cannot start (e.g. ``--workdir`` already holds a
request journal from an earlier run).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.errors import ReproError
from repro.observability.instrument import ledger_to_metrics
from repro.parallel.cache import atomic_write
from repro.resilience.ledger import ResilienceLedger
from repro.sdnsim.clock import EventScheduler
from repro.serving.ab import _SETTLE, _account_drops, fingerprint, goodput, percentile
from repro.serving.backends import TriageBackend
from repro.serving.daemon import ServingDaemon
from repro.serving.requestlog import RequestLog, recover
from repro.serving.traffic import TrafficConfig, generate_trace, replay

#: The smoke trace: 30 simulated seconds, aggressive bursts and faults.
SMOKE_TRAFFIC = TrafficConfig(
    seed=2020,
    duration=30.0,
    base_rate=6.0,
    burst_rate=40.0,
    bursts=2,
    burst_length=4.0,
    slow_client_rate=0.05,
    poison_rate=0.04,
)


def run_smoke(out: str | None = None, workdir: str | None = None) -> int:
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    base.mkdir(parents=True, exist_ok=True)
    journal_path = base / "requests.journal"
    trace = generate_trace(SMOKE_TRAFFIC)
    scheduler = EventScheduler()
    ledger = ResilienceLedger()
    backend = TriageBackend(seed=SMOKE_TRAFFIC.seed, lint_workspace=base / "lint")
    request_log = RequestLog(
        journal_path,
        {"traffic": asdict(SMOKE_TRAFFIC), "hardened": True, "settle": _SETTLE},
    )
    daemon = ServingDaemon(
        scheduler,
        backend,
        ledger=ledger,
        request_log=request_log,
    )
    replay(trace, daemon)
    failures: list[str] = []
    try:
        daemon.run(until=SMOKE_TRAFFIC.duration + _SETTLE)
    except Exception as exc:  # noqa: BLE001 - the smoke contract itself
        failures.append(f"unhandled exception escaped the daemon: {exc!r}")
    daemon.close()

    stats = daemon.stats
    if not failures:
        if len(daemon.responses) != len(trace.requests):
            failures.append(
                f"response accounting broken: {len(trace.requests)} requests "
                f"but {len(daemon.responses)} terminal responses"
            )
        if stats.shed == 0:
            failures.append("overload trace produced zero shed requests")
        if stats.served_heuristic == 0:
            failures.append("overload trace produced zero degraded answers")
        unaccounted = _account_drops(daemon.responses, ledger)
        if unaccounted:
            failures.append(
                f"{unaccounted} dropped request(s) have no priced ledger entry"
            )
        accounting = recover(journal_path)
        if accounting["inflight"]:
            failures.append(
                f"journal shows {len(accounting['inflight'])} request(s) "
                "admitted but never terminally recorded after a clean run"
            )

    # Full observability export alongside the summary: daemon metrics plus
    # the ledger bridge, in the registry JSONL format CI uploads.
    ledger_to_metrics(ledger, daemon.metrics)
    metrics_path = base / "serve_metrics.jsonl"
    atomic_write(metrics_path, daemon.metrics.export_jsonl())

    latencies = [r.latency for r in daemon.responses if r.answered]
    summary = {
        "trace_requests": len(trace.requests),
        "slow_clients": trace.slow_clients,
        "poison": trace.poison,
        "kind_counts": trace.kind_counts(),
        "goodput": round(goodput(daemon.responses, SMOKE_TRAFFIC.duration), 6),
        "p99": round(percentile(latencies, 99.0), 6),
        "stats": stats.to_dict(),
        "ledger": ledger.summary(),
        "fingerprint": fingerprint(daemon.responses),
        "metrics_file": str(metrics_path),
        "failures": failures,
    }
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        atomic_write(Path(out), json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("serve-smoke: all overload-contract assertions held")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serving.smoke")
    parser.add_argument("--out", default=None, help="write summary JSON here")
    parser.add_argument("--workdir", default=None,
                        help="journal/lint workspace (default: temp dir)")
    args = parser.parse_args(argv)
    try:
        return run_smoke(out=args.out, workdir=args.workdir)
    except ReproError as exc:  # sdnlint: disable=dataflow.unpriced-exception (reported as a one-line error with exit 2, as the CLI does)
        print(f"repro.serving.smoke: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
