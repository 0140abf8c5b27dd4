"""Resolution-time model (Fig 7).

Resolution times are lognormal per trigger with controller-specific tail
multipliers, encoding the paper's observations:

  * configuration bugs have the longest tail of all trigger categories;
  * ONOS has a longer tail than CORD for configuration, external-call, and
    network-event bugs (more complex structure: LoC, classes);
  * CORD has a longer tail than ONOS for reboot-triggered bugs (specialized
    disaggregated-optical code: EPON/GPON state tracking).
"""

from __future__ import annotations

import random

from repro.taxonomy import Trigger

#: Lognormal location (mu, in log-days) per trigger.
_MU: dict[Trigger, float] = {
    Trigger.CONFIGURATION: 2.3,
    Trigger.EXTERNAL_CALLS: 2.0,
    Trigger.NETWORK_EVENTS: 1.8,
    Trigger.HARDWARE_REBOOTS: 1.6,
}

#: Lognormal scale (sigma) per trigger — configuration is the heaviest tail.
_SIGMA: dict[Trigger, float] = {
    Trigger.CONFIGURATION: 1.30,
    Trigger.EXTERNAL_CALLS: 1.10,
    Trigger.NETWORK_EVENTS: 1.00,
    Trigger.HARDWARE_REBOOTS: 0.90,
}

#: Per-controller multiplicative tail adjustment (applied to sigma).
_CONTROLLER_TAIL: dict[str, dict[Trigger, float]] = {
    "ONOS": {
        Trigger.CONFIGURATION: 1.25,
        Trigger.EXTERNAL_CALLS: 1.25,
        Trigger.NETWORK_EVENTS: 1.20,
        Trigger.HARDWARE_REBOOTS: 0.85,
    },
    "CORD": {
        Trigger.CONFIGURATION: 1.00,
        Trigger.EXTERNAL_CALLS: 1.00,
        Trigger.NETWORK_EVENTS: 1.00,
        Trigger.HARDWARE_REBOOTS: 1.45,
    },
    # FAUCET resolution times are never *observable* through the GitHub
    # substrate (SS VIII), but the model is defined so simulations that need a
    # ground-truth latency can still draw one.
    "FAUCET": {
        Trigger.CONFIGURATION: 0.90,
        Trigger.EXTERNAL_CALLS: 0.90,
        Trigger.NETWORK_EVENTS: 0.90,
        Trigger.HARDWARE_REBOOTS: 0.90,
    },
}

#: Minimum plausible resolution time (same-day fixes), in days.
_MIN_DAYS = 0.05


class ResolutionTimeModel:
    """Sample bug resolution times in days."""

    def parameters(self, controller: str, trigger: Trigger) -> tuple[float, float]:
        """The effective ``(mu, sigma)`` for a controller/trigger pair."""
        tail = _CONTROLLER_TAIL.get(controller, {}).get(trigger, 1.0)
        return _MU[trigger], _SIGMA[trigger] * tail

    def sample_days(
        self, controller: str, trigger: Trigger, rng: random.Random
    ) -> float:
        """One lognormal draw of resolution latency, in days."""
        mu, sigma = self.parameters(controller, trigger)
        return max(_MIN_DAYS, rng.lognormvariate(mu, sigma))
