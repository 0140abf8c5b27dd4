#!/usr/bin/env python3
"""Quickstart: generate the study corpus and reproduce the headline numbers.

Run:  python examples/quickstart.py
"""

from repro.analysis import determinism_rates, symptom_distribution, trigger_distribution
from repro.corpus import CorpusGenerator
from repro.pipeline import validate_pipeline
from repro.reporting import ascii_table, format_percent, render_distribution


def main() -> None:
    print("Generating the study corpus (795 critical bugs, seed=2020)...")
    corpus = CorpusGenerator(seed=2020).generate()
    print(f"  controllers: {corpus.dataset.split_counts()}")
    print(f"  manual sample: {len(corpus.manual_sample)} closed bugs\n")

    # RQ1: determinism (paper: FAUCET 96%, ONOS 94%, CORD 94%).
    rates = determinism_rates(corpus.dataset)
    print(ascii_table(
        ["controller", "deterministic bugs"],
        [[name, format_percent(rate)] for name, rate in sorted(rates.items())],
        title="RQ1: bug determinism",
    ))
    print()

    # RQ2: symptoms (paper: byzantine 61.33%, fail-stop 20%, ...).
    print(render_distribution(
        symptom_distribution(corpus.manual_sample), title="RQ2: symptoms"
    ))
    print()

    # RQ3: triggers (paper: configuration 38.8%, external calls 33%, ...).
    print(render_distribution(
        trigger_distribution(corpus.manual_sample), title="RQ3: triggers"
    ))
    print()

    # SS II-C: the NLP autoclassifier (paper: 96% bug type, 86% symptom).
    print("Training the NLP autoclassifier (SS II-C) ...")
    for dimension in ("bug_type", "symptom"):
        report = validate_pipeline(corpus.manual_sample, dimension, seed=0)
        print(f"  {report.summary()}")

    # One example bug, end to end.
    bug = corpus.manual_sample[0]
    print(f"\nExample bug {bug.bug_id} ({bug.controller}):")
    print(f"  title: {bug.report.title}")
    print(f"  ground-truth label: {bug.label.tags()}")


if __name__ == "__main__":
    main()
