"""RQ1 (SS III): determinism of critical bugs.

The paper's headline: all frameworks are dominated by deterministic bugs —
FAUCET 96%, ONOS 94%, CORD 94% — so record-and-replay recovery has limited
applicability to SDN controllers.
"""

from __future__ import annotations

from repro.corpus.dataset import BugDataset
from repro.taxonomy import BugType


def determinism_rates(dataset: BugDataset) -> dict[str, float]:
    """Fraction of deterministic bugs per controller.

    Returns ``{controller: rate}``; controllers with no bugs are omitted.
    """
    rates: dict[str, float] = {}
    for controller in dataset.controllers:
        subset = dataset.by_controller(controller)
        deterministic = sum(
            1 for bug in subset if bug.label.bug_type is BugType.DETERMINISTIC
        )
        rates[controller] = deterministic / len(subset)
    return rates
