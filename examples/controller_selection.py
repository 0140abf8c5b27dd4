#!/usr/bin/env python3
"""Controller selection for an operator (RQ4, SS VII-A).

Scores FAUCET, ONOS, and CORD on the stability signals the paper extracts
from the bug corpus, and ranks them for three deployment scenarios.

Run:  python examples/controller_selection.py
"""

from repro.corpus import CorpusGenerator
from repro.guidance import UseCase, rank_controllers, score_controller
from repro.reporting import ascii_table, format_percent


def main() -> None:
    corpus = CorpusGenerator(seed=2020).generate()
    dataset = corpus.dataset

    rows = []
    for controller in dataset.controllers:
        score = score_controller(dataset, controller)
        rows.append(
            [
                controller,
                format_percent(score.missing_logic_share),
                format_percent(score.load_share),
                format_percent(score.fail_stop_share),
                format_percent(score.performance_share),
                f"{score.composite:.3f}",
            ]
        )
    print(ascii_table(
        ["controller", "missing logic", "load", "fail-stop", "perf",
         "instability (lower=better)"],
        rows, title="SS VII-A: stability signals from the bug corpus",
    ))

    for use_case in UseCase:
        ranking = rank_controllers(dataset, use_case=use_case)
        names = " > ".join(s.controller for s in ranking)
        print(f"\n  {use_case.value:22s} recommendation: {names}")

    print(
        "\nPaper's guidance: ONOS is the most stable general-purpose choice; "
        "CORD fits the telco central office despite its load sensitivity; "
        "FAUCET is specialized for network slicing and yields missing-logic "
        "errors outside that niche."
    )


if __name__ == "__main__":
    main()
