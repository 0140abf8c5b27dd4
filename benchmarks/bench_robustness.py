"""SS VIII ablations: annotator noise, sample size, cross-controller transfer.

The paper's threats-to-validity section raises three empirical questions it
does not quantify; these benches quantify them on the reproduction corpus.
"""

from __future__ import annotations

from conftest import once

from repro.pipeline.robustness import (
    accuracy_under_label_noise,
    accuracy_vs_sample_size,
    cross_controller_transfer,
)
from repro.reporting import ascii_table, format_percent


def test_bench_label_noise(benchmark, manual_sample):
    """Accuracy degrades gracefully under annotator noise — the manual
    analysis tolerates imperfect reports."""
    rates = (0.0, 0.1, 0.2, 0.35)

    def run():
        return {
            rate: accuracy_under_label_noise(manual_sample, "symptom", rate, seed=0)
            for rate in rates
        }

    results = once(benchmark, run)
    rows = [[format_percent(rate), format_percent(acc)] for rate, acc in results.items()]
    print()
    print(ascii_table(
        ["training-label noise", "symptom accuracy"], rows,
        title="SS VIII ablation: annotator-noise robustness",
    ))
    assert results[0.0] >= 0.8
    # Graceful degradation: 10% noise costs little; heavy noise costs more.
    assert results[0.1] >= results[0.0] - 0.15
    assert results[0.35] <= results[0.0] + 1e-9


def test_bench_sample_size(benchmark, dataset):
    """Was 50 bugs/controller enough?  Accuracy saturates around there."""
    sizes = [15, 30, 50, 80]

    def run():
        return accuracy_vs_sample_size(dataset, "symptom", sizes, seed=0)

    results = once(benchmark, run)
    rows = [[size, format_percent(acc)] for size, acc in results.items()]
    print()
    print(ascii_table(
        ["bugs per controller", "symptom accuracy"], rows,
        title="SS VIII ablation: manual-sample size sensitivity",
    ))
    assert results[50] > results[15] - 0.05  # no collapse at the paper's size
    assert results[80] - results[50] < 0.10  # diminishing returns past 50


def test_bench_cross_controller_transfer(benchmark, manual_sample):
    """Generalizability: a model trained on two controllers transfers to
    the third despite never seeing its component vocabulary."""
    results = once(benchmark, cross_controller_transfer, manual_sample, "symptom")
    rows = [
        [r.held_out, r.n_train, r.n_test, format_percent(r.accuracy)]
        for r in results
    ]
    print()
    print(ascii_table(
        ["held-out controller", "train bugs", "test bugs", "accuracy"], rows,
        title="SS VIII ablation: leave-one-controller-out transfer",
    ))
    for result in results:
        assert result.accuracy > 0.6, result.held_out
