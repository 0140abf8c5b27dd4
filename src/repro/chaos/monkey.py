"""The chaos monkey: random perturbation sequences against a scenario."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.faultinjection.scenario import (
    HOSTS,
    ScenarioResult,
    build_scenario,
    resilience_context,
    run_workload,
)
from repro.resilience.ledger import ResilienceLedger
from repro.sdnsim.messages import BROADCAST_MAC, Packet, PortStatus
from repro.sdnsim.observers import Outcome
from repro.taxonomy import Symptom, Trigger


@dataclass(frozen=True)
class Perturbation:
    """One chaos action: a named environment disturbance.

    ``apply`` receives the scenario and a seeded RNG and schedules or
    injects the disturbance; ``trigger`` records which taxonomy trigger
    class the disturbance exercises (for coverage accounting).
    """

    name: str
    trigger: Trigger
    apply: Callable[[ScenarioResult, random.Random], None]


def _reboot_olt(scenario: ScenarioResult, rng: random.Random) -> None:
    at = rng.uniform(5.0, 30.0)
    scenario.scheduler.schedule(at, lambda: scenario.adapter.notify_reboot("olt-1"))


def _flap_port(scenario: ScenarioResult, rng: random.Random) -> None:
    port = rng.choice([1, 2, 3])
    scenario.switch.set_port_state(port, False)
    scenario.runtime.handle_message(PortStatus(dpid=1, port=port, is_up=False))
    restore_at = rng.uniform(2.0, 20.0)

    def restore() -> None:
        scenario.switch.set_port_state(port, True)
        scenario.runtime.handle_message(PortStatus(dpid=1, port=port, is_up=True))

    scenario.scheduler.schedule(restore_at, restore)


def _tsdb_outage(scenario: ScenarioResult, rng: random.Random) -> None:
    down_at = rng.uniform(0.0, 40.0)
    up_at = down_at + rng.uniform(1.0, 15.0)
    scenario.scheduler.schedule(
        down_at, lambda: setattr(scenario.tsdb, "available", False)
    )
    scenario.scheduler.schedule(
        up_at, lambda: setattr(scenario.tsdb, "available", True)
    )


def _broadcast_storm(scenario: ScenarioResult, rng: random.Random) -> None:
    for i in range(rng.randint(30, 120)):
        mac = f"02:{rng.randrange(256):02x}:00:00:00:{i % 256:02x}"
        scenario.switch.receive(
            rng.choice([2, 3]),
            Packet(src_mac=mac, dst_mac=BROADCAST_MAC, payload="storm"),
        )


def _malformed_frame(scenario: ScenarioResult, rng: random.Random) -> None:
    scenario.switch.receive(
        rng.choice([1, 2, 3]),
        Packet(src_mac=HOSTS[2], dst_mac=None, payload="fuzz"),  # type: ignore[arg-type]
    )


def _multicast_probe(scenario: ScenarioResult, rng: random.Random) -> None:
    scenario.switch.receive(
        2,
        Packet(
            src_mac=HOSTS[2],
            dst_mac=f"01:00:5e:00:00:{rng.randrange(8):02x}",
            payload="mcast-probe",
        ),
    )


def _config_mutation(scenario: ScenarioResult, rng: random.Random) -> None:
    """Flip a random configuration knob at runtime (no validation —
    exactly how latent misconfigurations reach production)."""
    mutation = rng.choice(["workers", "drop_multicast", "acl_garbage"])
    raw = scenario.runtime.config.raw
    if mutation == "workers":
        raw["workers"] = rng.choice([0, 1, 16, "many"])
    elif mutation == "drop_multicast":
        raw.pop("multicast", None)
    else:
        raw.setdefault("acls", []).append(
            {"src_mac": "any", "dst_mac": rng.choice(list(HOSTS.values()))}
        )


def default_perturbations() -> list[Perturbation]:
    """The standard chaos arsenal, one or more per trigger class."""
    return [
        Perturbation("olt-reboot", Trigger.HARDWARE_REBOOTS, _reboot_olt),
        Perturbation("port-flap", Trigger.NETWORK_EVENTS, _flap_port),
        Perturbation("tsdb-outage", Trigger.EXTERNAL_CALLS, _tsdb_outage),
        Perturbation("broadcast-storm", Trigger.NETWORK_EVENTS, _broadcast_storm),
        Perturbation("malformed-frame", Trigger.NETWORK_EVENTS, _malformed_frame),
        Perturbation("multicast-probe", Trigger.NETWORK_EVENTS, _multicast_probe),
        Perturbation("config-mutation", Trigger.CONFIGURATION, _config_mutation),
    ]


@dataclass(frozen=True)
class ChaosFinding:
    """One chaos run that surfaced a symptomatic outcome."""

    run_index: int
    perturbations: tuple[str, ...]
    outcome: Outcome


@dataclass
class ChaosReport:
    """Results of a chaos campaign."""

    runs: int
    findings: list[ChaosFinding] = field(default_factory=list)
    triggers_exercised: dict[Trigger, int] = field(default_factory=dict)
    #: Populated when the monkey ran hardened: every resilience action taken.
    ledger: ResilienceLedger | None = None

    @property
    def finding_rate(self) -> float:
        return len(self.findings) / self.runs if self.runs else 0.0

    def symptoms_found(self) -> set[Symptom]:
        return {f.outcome.symptom for f in self.findings if f.outcome.symptom}

    def first_finding(self, symptom: Symptom) -> ChaosFinding | None:
        """The earliest run exposing ``symptom`` (None if never found)."""
        for finding in self.findings:
            if finding.outcome.symptom is symptom:
                return finding
        return None


class ChaosMonkey:
    """Throw random perturbation sequences at a scenario factory.

    Parameters
    ----------
    scenario_factory:
        Zero-argument callable producing a fresh (pre-workload) scenario.
        Pass a factory with buggy knobs to hunt bugs, or the default fixed
        build to measure the hardened system's resilience.
    perturbations:
        The arsenal; defaults to :func:`default_perturbations`.
    intensity:
        Perturbations sampled (with replacement) per run.
    seed:
        Campaign seed; runs are deterministic given it.
    hardened:
        ``True`` builds every scenario inside :func:`resilience_context`,
        so the factory produces hardened scenarios — guarded TSDB, breaker,
        shared ledger — letting the same arsenal measure the resilience
        runtime instead of hunting bugs.
    """

    def __init__(
        self,
        scenario_factory: Callable[[], ScenarioResult] = build_scenario,
        *,
        perturbations: list[Perturbation] | None = None,
        intensity: int = 3,
        seed: int = 0,
        hardened: bool = False,
    ) -> None:
        if intensity < 1:
            raise ReproError("intensity must be >= 1")
        self.scenario_factory = scenario_factory
        self.perturbations = (
            list(perturbations) if perturbations is not None else default_perturbations()
        )
        if not self.perturbations:
            raise ReproError("at least one perturbation is required")
        self.intensity = intensity
        self.seed = seed
        self.ledger = ResilienceLedger() if hardened else None

    def run_once(self, run_index: int) -> tuple[tuple[str, ...], Outcome]:
        """One chaos run: sample perturbations, drive, classify.

        For a fixed seed this is bit-for-bit deterministic across fresh
        monkeys: the per-run RNG is derived only from ``(seed, run_index)``
        and everything downstream runs on the sim clock, so the perturbation
        tuple and the classified :class:`Outcome` are reproducible — the
        property trace minimization depends on.
        """
        rng = random.Random((self.seed << 16) ^ run_index)
        chosen = [
            self.perturbations[rng.randrange(len(self.perturbations))]
            for _ in range(self.intensity)
        ]
        if self.ledger is not None:
            with resilience_context(self.ledger):
                scenario = self.scenario_factory()
        else:
            scenario = self.scenario_factory()

        names = tuple(p.name for p in chosen)

        def apply_all(result: ScenarioResult) -> None:
            for perturbation in chosen:
                perturbation.apply(result, rng)

        try:
            run_workload(scenario, extra_events=apply_all, seed=run_index)
        except Exception as exc:  # noqa: BLE001 - chaos fault boundary
            # An exception escaping the runtime is a controller crash: the
            # process would have died (e.g. a type-confused config value
            # reaching the worker-pool sizing).
            scenario.runtime.crashed = True
            scenario.runtime.crash_reason = f"{type(exc).__name__}: {exc}"
        return names, scenario.outcome()

    def run_campaign(self, runs: int = 30) -> ChaosReport:
        """Run ``runs`` independent chaos runs and collect findings."""
        if runs < 1:
            raise ReproError("runs must be >= 1")
        report = ChaosReport(runs=runs, ledger=self.ledger)
        name_to_trigger = {p.name: p.trigger for p in self.perturbations}
        for run_index in range(runs):
            names, outcome = self.run_once(run_index)
            for name in names:
                trigger = name_to_trigger[name]
                report.triggers_exercised[trigger] = (
                    report.triggers_exercised.get(trigger, 0) + 1
                )
            if outcome.symptom is not None:
                report.findings.append(
                    ChaosFinding(
                        run_index=run_index, perturbations=names, outcome=outcome
                    )
                )
        return report
