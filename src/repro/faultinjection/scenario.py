"""Standard test scenario: a small leaf network under a full app stack.

One switch with four host ports plus a mirror port, an L2 learning switch,
ACL, mirroring, multicast, a stats gauge wired to a TSDB, an auth service,
and an OLT behind a VOLTHA adapter.  ``run_workload`` drives representative
traffic and collects forwarding/feature correctness checks; faults perturb
the scenario before or during the run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.ledger import ResilienceLedger
from repro.resilience.policies import ResilienceConfig

from repro.sdnsim.apps import (
    AclApp,
    InputValidatorApp,
    L2LearningSwitch,
    MirrorApp,
    MulticastHandler,
    StatsGauge,
)
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.config import ControllerConfig
from repro.sdnsim.controller import ControllerRuntime
from repro.sdnsim.datapath import Switch
from repro.sdnsim.messages import BROADCAST_MAC, Packet
from repro.sdnsim.observers import Observation, Outcome, OutcomeClassifier, observe
from repro.sdnsim.optical import OltDevice, OnuDevice, VolthaAdapter
from repro.sdnsim.services import AuthService, GuardedTimeSeriesDB, TimeSeriesDB

HOSTS = {
    1: "aa:00:00:00:00:01",
    2: "aa:00:00:00:00:02",
    3: "aa:00:00:00:00:03",
}
MIRROR_PORT = 4
MONITORED_PORT = 1
MULTICAST_GROUP = "01:00:5e:00:00:01"

#: Northbound API latency of a healthy single-worker controller, used as the
#: regression baseline for performance classification.
BASELINE_API_LATENCY = 0.010


def default_config() -> dict[str, Any]:
    """The healthy configuration every scenario starts from."""
    return {
        "vlans": {"office": {"vid": 100}},
        "acls": [],
        "mirror": {1: {"source_port": MONITORED_PORT, "mirror_port": MIRROR_PORT}},
        "multicast": {"groups": {MULTICAST_GROUP: [2, 3]}},
        "stats": {"interval": 5.0},
        "workers": 1,
    }


#: Ledger installed by :func:`resilience_context`; lets the A/B campaign
#: harden every scenario a fault builder constructs without threading a
#: parameter through each of the catalog's builders.
_ACTIVE_LEDGER: ResilienceLedger | None = None


@contextmanager
def resilience_context(ledger: ResilienceLedger) -> Iterator[None]:
    """Make every :func:`build_scenario` in the block resilience-hardened,
    pricing every resilience action into ``ledger``."""
    global _ACTIVE_LEDGER
    previous = _ACTIVE_LEDGER
    _ACTIVE_LEDGER = ledger
    try:
        yield
    finally:
        _ACTIVE_LEDGER = previous


@dataclass
class ScenarioResult:
    """Everything a fault or a check might need to inspect."""

    scheduler: EventScheduler
    runtime: ControllerRuntime
    switch: Switch
    tsdb: TimeSeriesDB
    auth: AuthService
    adapter: VolthaAdapter
    olt: OltDevice
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: Set when the scenario was built hardened (resilience enabled).
    guarded_tsdb: GuardedTimeSeriesDB | None = None
    ledger: ResilienceLedger | None = None

    def observation(self) -> Observation:
        return observe(
            self.runtime,
            stalled=self.adapter.core_blocked,
            checks=self.checks,
            baseline_latency=BASELINE_API_LATENCY,
        )

    def outcome(self) -> Outcome:
        return OutcomeClassifier().classify(self.observation())


def build_scenario(
    *,
    config_overrides: Mapping[str, Any] | None = None,
    drop_config_keys: tuple[str, ...] = (),
    tsdb_api_version: int = 2,
    auth_api_version: int = 1,
    gauge_cast_types: bool = True,
    mirror_broadcast: bool = True,
    multicast_guard: bool = True,
    adapter_timeout: float | None = 30.0,
    global_lock: bool = True,
    input_validation: bool = False,
) -> ScenarioResult:
    """Assemble the standard scenario.

    The defaults are the *fixed* variants of every named bug; fault
    injectors flip individual knobs back to the buggy configuration.
    Inside :func:`resilience_context` the TSDB is wrapped in a
    :class:`GuardedTimeSeriesDB` — breaker + retry on the sim clock, shaped
    by :class:`ResilienceConfig` — and every resilience action lands in the
    context's ledger.
    """
    raw = default_config()
    for key in drop_config_keys:
        raw.pop(key, None)
    if config_overrides:
        raw.update(config_overrides)
    # Faulty configs intentionally bypass validation: the paper's point is
    # that latent misconfigurations reach runtime code.
    config = ControllerConfig.load(raw, validate=False)

    scheduler = EventScheduler()
    runtime = ControllerRuntime(
        scheduler, config, api_base_latency=BASELINE_API_LATENCY, global_lock=global_lock
    )
    switch = Switch(1, [1, 2, 3, MIRROR_PORT])
    switch.exclude_from_flood = {MIRROR_PORT}
    switch.connect(runtime)
    for port, mac in HOSTS.items():
        switch.attach_host(port, mac)

    tsdb = TimeSeriesDB(api_version=tsdb_api_version)
    auth = AuthService(api_version=auth_api_version)

    gauge_sink: TimeSeriesDB | GuardedTimeSeriesDB = tsdb
    guarded: GuardedTimeSeriesDB | None = None
    ledger = _ACTIVE_LEDGER
    if ledger is not None:
        breaker = CircuitBreaker(
            scheduler,
            name="tsdb",
            failure_threshold=ResilienceConfig.breaker_threshold,
            window=ResilienceConfig.breaker_window,
            min_calls=ResilienceConfig.breaker_min_calls,
            cooldown=ResilienceConfig.breaker_cooldown,
            ledger=ledger,
        )
        guarded = GuardedTimeSeriesDB(
            tsdb, scheduler, retry=ResilienceConfig.retry, breaker=breaker, ledger=ledger
        )
        gauge_sink = guarded

    if input_validation:
        # The validator must run first so it can veto malformed events.
        runtime.add_app(InputValidatorApp())
    runtime.add_app(L2LearningSwitch())
    runtime.add_app(AclApp())
    runtime.add_app(MirrorApp(mirror_broadcast=mirror_broadcast))
    runtime.add_app(MulticastHandler(guard_config=multicast_guard))
    runtime.add_app(
        StatsGauge(gauge_sink, interval=5.0, cast_types=gauge_cast_types)
    )
    runtime.start()

    adapter = VolthaAdapter(scheduler, connect_timeout=adapter_timeout)
    olt = OltDevice("olt-1")
    olt.attach_onu(OnuDevice(serial="onu-1", olt_port=1))
    adapter.manage(olt)
    adapter.activate("olt-1")

    return ScenarioResult(
        scheduler=scheduler,
        runtime=runtime,
        switch=switch,
        tsdb=tsdb,
        auth=auth,
        adapter=adapter,
        olt=olt,
        guarded_tsdb=guarded,
        ledger=ledger,
    )


#: Northbound calls per workload run (operator load).
_API_CALLS = 20


def run_workload(
    scenario: ScenarioResult,
    *,
    duration: float = 60.0,
    extra_events: Callable[[ScenarioResult], None] | None = None,
    seed: int = 0,
) -> ScenarioResult:
    """Drive representative traffic and record correctness checks.

    Workload: each host ARPs (broadcast) then sends unicast to its
    neighbour; a multicast frame targets the configured group; the gauge
    polls on its timer; ``_API_CALLS`` northbound calls model operator load.
    ``extra_events`` lets a fault inject mid-run events.
    """
    rng = random.Random(seed)
    switch = scenario.switch
    runtime = scenario.runtime
    scheduler = scenario.scheduler

    macs = list(HOSTS.values())
    # ARP-style discovery broadcasts.
    for port, mac in HOSTS.items():
        switch.receive(port, Packet(src_mac=mac, dst_mac=BROADCAST_MAC, payload="arp"))
    # Unicast mesh.
    for i, (port, mac) in enumerate(HOSTS.items()):
        dst = macs[(i + 1) % len(macs)]
        switch.receive(port, Packet(src_mac=mac, dst_mac=dst, payload="data"))
    # Multicast traffic toward the configured group.
    switch.receive(
        2, Packet(src_mac=HOSTS[2], dst_mac=MULTICAST_GROUP, payload="mcast")
    )
    if extra_events is not None:
        extra_events(scenario)
    for _ in range(_API_CALLS):
        if not runtime.crashed:
            runtime.api_call("list_devices")
    scheduler.run(until=duration)

    # -- correctness checks -------------------------------------------------
    delivered = scenario.switch.delivered
    host1_got_unicast = any(
        port == 1 and pkt.dst_mac == HOSTS[1] for port, pkt in delivered
    )
    broadcast_reached_others = any(
        port in (2, 3) and pkt.is_broadcast for port, pkt in delivered
    )
    unicast_mirrored = any(
        port == MIRROR_PORT and pkt.dst_mac == HOSTS[1] for port, pkt in delivered
    )
    broadcast_mirrored = any(
        port == MIRROR_PORT and pkt.is_broadcast for port, pkt in delivered
    )
    multicast_delivered = any(
        port in (2, 3) and pkt.dst_mac == MULTICAST_GROUP for port, pkt in delivered
    )
    scenario.checks.extend(
        [
            ("forward: unicast reaches host 1", host1_got_unicast),
            ("forward: broadcast floods to hosts", broadcast_reached_others),
            ("feature: unicast mirrored to monitor", unicast_mirrored),
            ("feature: broadcast mirrored to monitor", broadcast_mirrored),
            ("feature: multicast delivered to group", multicast_delivered or runtime.crashed),
            ("feature: stats exported to tsdb", scenario.tsdb.count() > 0 or runtime.crashed),
        ]
    )
    return scenario
