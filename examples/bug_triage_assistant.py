#!/usr/bin/env python3
"""Operator bug triage (SS VII-B): diagnose fresh bug reports.

Trains the diagnosis assistant on the labeled manual sample, then triages
three incoming bug descriptions the way the paper anticipates: text
classification for the observable dimensions, plus mined correlation rules
(e.g. concurrency <-> add-synchronization) to suggest root causes and fixes.

Run:  python examples/bug_triage_assistant.py
"""

from repro.corpus import CorpusGenerator
from repro.guidance import DiagnosisAssistant

INCOMING_BUGS = [
    (
        "crash after config push",
        "After editing the faucet.yaml and reloading, the whole controller "
        "exits immediately, taking the network control plane down. A null "
        "pointer exception is thrown because the reference was never "
        "initialized. Reproducible every single time with the steps above.",
    ),
    (
        "slow API under threads",
        "Two interleaved threads race on the shared map without holding the "
        "lock. Throughput of the api drops sharply and requests take seconds "
        "instead of millis. Happens intermittently; we could not reproduce "
        "it on demand.",
    ),
    (
        "library mismatch",
        "After upgrading the influxdb client to the latest release the gauge "
        "poller started failing. The third party service changed its wire "
        "format between releases. A scary looking error message is logged "
        "repeatedly but forwarding is unaffected. One hundred percent "
        "reproducible given the same input sequence.",
    ),
]


def main() -> None:
    print("Generating corpus and training the diagnosis assistant...")
    corpus = CorpusGenerator(seed=2020).generate()
    assistant = DiagnosisAssistant(seed=0).fit(corpus.manual_sample)

    for title, description in INCOMING_BUGS:
        print(f"\n=== incoming bug: {title} ===")
        for suggestion in assistant.diagnose(description):
            print(
                f"  {suggestion.dimension:12s} -> {suggestion.tag:22s} "
                f"(confidence {suggestion.confidence:.2f}; {suggestion.rationale})"
            )


if __name__ == "__main__":
    main()
