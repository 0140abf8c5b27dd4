"""Coverage-guided vs pure-random fuzzing under equal budget — the gate.

The fuzzer's reason to exist: on a 10-controller × 200-switch fat-tree
world, a coverage-guided campaign (corpus retention on unseen monitor
tokens, novelty-selected mutants, tree-biased ranking) must find at least
1.5× the distinct violation signatures a pure-random campaign finds with
the *same* budget, batch size, seed generator, and replay machinery —
pooled over two campaign seeds, and strictly more on every individual
seed.  Both arms are deterministic functions of their seed, so the gate
is a regression check, not a coin flip.

A second scenario checks the reproducer contract on a default-size
campaign: every violation class ships a ddmin-minimized schedule whose
replay still violates that class — twice, bit-for-bit.
"""

from __future__ import annotations

import json
import pathlib

from conftest import once

from repro.fuzzing import FuzzConfig, run_campaign
from repro.reporting import ascii_table

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

#: The gated headline ratio.
_GATE = 1.5
_SEEDS = (11, 23)

_SCALE = dict(
    controllers=10,
    switches=200,
    topology="fattree",
    budget=120,
    batch=12,
    horizon=40.0,
    events=1,
    minimize=False,
)


def _arms(tmp_path):
    results = []
    for seed in _SEEDS:
        guided = run_campaign(
            FuzzConfig(**_SCALE, seed=seed, guided=True),
            tmp_path / f"guided-{seed}",
        )
        rand = run_campaign(
            FuzzConfig(**_SCALE, seed=seed, guided=False),
            tmp_path / f"random-{seed}",
        )
        results.append((seed, guided, rand))
    return results


def test_bench_guided_vs_random_signatures(benchmark, tmp_path):
    results = once(benchmark, lambda: _arms(tmp_path))

    rows = []
    total_guided = 0
    total_random = 0
    for seed, guided, rand in results:
        assert guided.state.executed == rand.state.executed == _SCALE["budget"]
        rows.append([
            str(seed),
            str(guided.distinct_signatures),
            str(rand.distinct_signatures),
            f"{guided.distinct_signatures / max(rand.distinct_signatures, 1):.2f}x",
        ])
        total_guided += guided.distinct_signatures
        total_random += rand.distinct_signatures
    # Per-campaign yield summed over seeds: each campaign spends exactly
    # ``budget`` replays, so this compares what equal spend buys each arm.
    ratio = total_guided / max(total_random, 1)
    rows.append(["total", str(total_guided), str(total_random), f"{ratio:.2f}x"])
    topology = results[0][1].config.build_topology()
    print("\n" + ascii_table(
        ["seed", "guided sigs", "random sigs", "ratio"],
        rows,
        title=f"equal budget ({_SCALE['budget']} schedules) on {topology.summary()}",
    ))
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with open(ARTIFACTS / "coverage_fuzzer.json", "w") as handle:
        json.dump({
            "topology": topology.summary(),
            "budget": _SCALE["budget"],
            "per_seed": [
                {"seed": seed,
                 "guided": guided.distinct_signatures,
                 "random": rand.distinct_signatures}
                for seed, guided, rand in results
            ],
            "total_guided": total_guided,
            "total_random": total_random,
            "ratio": round(ratio, 3),
            "gate": _GATE,
        }, handle, indent=2, sort_keys=True)

    for seed, guided, rand in results:
        assert guided.distinct_signatures > rand.distinct_signatures, (
            f"seed {seed}: guidance did not beat random "
            f"({guided.distinct_signatures} <= {rand.distinct_signatures})"
        )
    assert ratio >= _GATE, (
        f"coverage-guided fuzzing found only {ratio:.2f}x the distinct "
        f"violation signatures of pure-random (gate: {_GATE}x)"
    )


def test_bench_reproducers_replay_deterministically(benchmark, tmp_path):
    from repro.adversary.schedule import FaultSchedule
    from repro.fuzzing.campaign import _replay
    from repro.fuzzing.coverage import run_coverage

    config = FuzzConfig(
        controllers=5, switches=12, budget=40, batch=8, seed=7, horizon=30.0
    )
    report = once(
        benchmark, lambda: run_campaign(config, tmp_path / "reproducers")
    )

    assert report.state.reproducers, "campaign found no violation classes"
    topology = config.build_topology()
    for cls in sorted(report.state.reproducers):
        entry = report.state.reproducers[cls]
        minimized = FaultSchedule.from_dicts(entry.minimized)
        assert len(minimized) <= len(FaultSchedule.from_dicts(entry.original))
        prefix = f"viol:{cls}:"
        samples = [
            run_coverage(
                _replay(minimized, config, topology), horizon=config.horizon
            )
            for _ in range(2)
        ]
        for sample in samples:
            assert any(
                s.startswith(prefix) for s in sample.violation_signatures
            ), f"{cls}: minimized reproducer no longer violates its class"
        assert samples[0].tokens == samples[1].tokens, (
            f"{cls}: replay is not deterministic"
        )
