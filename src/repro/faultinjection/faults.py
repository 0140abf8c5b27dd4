"""The fault catalog: one executable fault per taxonomy cell.

Each :class:`FaultSpec` knows its Table I coordinates (trigger, root cause,
determinism, expected symptom) and how to build-and-run a scenario with the
fault active.  Non-deterministic faults manifest only for some seeds, which
is what lets the framework evaluation distinguish replay-style recovery
(works on non-deterministic bugs) from input transformation (needed for
deterministic ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.faultinjection.scenario import (
    HOSTS,
    ScenarioResult,
    build_scenario,
    run_workload,
)
from repro.sdnsim.messages import BROADCAST_MAC, Packet, PortStatus
from repro.sdnsim.observers import Outcome
from repro.taxonomy import BugType, ByzantineMode, RootCause, Symptom, Trigger


@dataclass(frozen=True)
class FaultSpec:
    """An executable fault with its taxonomy coordinates."""

    fault_id: str
    description: str
    trigger: Trigger
    root_cause: RootCause
    bug_type: BugType
    expected_symptom: Symptom
    expected_mode: ByzantineMode | None
    run: Callable[[int], ScenarioResult]
    #: Paper bug id when this fault reproduces a named case study.
    paper_reference: str | None = None
    #: Whether the triggering event is an *input* a filter could suppress
    #: (a malformed frame is; a link dying is a state change and is not).
    filterable: bool = True

    def execute(self, seed: int = 0) -> Outcome:
        """Run the fault scenario and classify the outcome."""
        return self.run(seed).outcome()


# ---------------------------------------------------------------------------
# Individual fault builders.  Defaults in build_scenario are the FIXED
# variants; each fault flips exactly the knob(s) that re-introduce the bug.
# ---------------------------------------------------------------------------

def _fault_misconfigured_acl(seed: int) -> ScenarioResult:
    """An operator ACL typo drops legitimate traffic to host 1."""
    scenario = build_scenario(
        config_overrides={
            # Intended to block a guest MAC; the typo blocks host 1 instead.
            "acls": [{"src_mac": "any", "dst_mac": HOSTS[1]}],
        }
    )
    return run_workload(scenario, seed=seed)


def _fault_missing_multicast_config(seed: int) -> ScenarioResult:
    """CORD-2470: multicast section absent, handler dereferences it."""
    scenario = build_scenario(
        drop_config_keys=("multicast",), multicast_guard=False
    )
    return run_workload(scenario, seed=seed)


def _fault_config_type_confusion(seed: int) -> ScenarioResult:
    """A config value with the wrong type reaches the worker pool sizing."""
    scenario = build_scenario(config_overrides={"workers": "sixteen"})
    try:
        return run_workload(scenario, seed=seed)
    except (TypeError, ValueError) as exc:
        scenario.runtime.crashed = True
        scenario.runtime.crash_reason = f"{type(exc).__name__}: {exc}"
        return scenario


def _fault_tsdb_type_mismatch(seed: int) -> ScenarioResult:
    """FAUCET-355: gauge writes stringly-typed counters to a v2 TSDB."""
    scenario = build_scenario(gauge_cast_types=False, tsdb_api_version=2)
    return run_workload(scenario, seed=seed)


def _fault_auth_argument_flip(seed: int) -> ScenarioResult:
    """The auth library flipped its argument order between versions; the
    controller still passes (mac, secret) and authorizes the secret string."""
    scenario = build_scenario(auth_api_version=2)
    result = run_workload(scenario, seed=seed)
    granted = scenario.auth.authenticate(HOSTS[2], "s3cret:zz")
    result.checks.append(
        (
            "forward: only valid MACs are authorized",
            not (granted and scenario.auth.is_authorized("s3cret:zz")),
        )
    )
    return result


def _fault_tsdb_flaky(seed: int) -> ScenarioResult:
    """The external TSDB flaps; writes fail intermittently with scary logs.

    Non-deterministic: whether a poll lands in a down window depends on
    timing (the seed).  Forwarding is unaffected either way.
    """
    scenario = build_scenario()
    rng = random.Random(seed)

    def flap(result: ScenarioResult) -> None:
        # Two short outage windows that may or may not cover a gauge poll.
        def down() -> None:
            result.tsdb.available = False

        def up() -> None:
            result.tsdb.available = True

        for _ in range(2):
            down_at = rng.uniform(0.0, 50.0)
            up_at = down_at + rng.uniform(0.5, 3.0)
            result.scheduler.schedule(down_at, down)
            result.scheduler.schedule(up_at, up)

    return run_workload(scenario, extra_events=flap, seed=seed)


def _fault_mirror_broadcast_missing(seed: int) -> ScenarioResult:
    """FAUCET-1623: the mirror app lacks the broadcast-output case."""
    scenario = build_scenario(mirror_broadcast=False)
    return run_workload(scenario, seed=seed)


def _fault_packet_in_storm(seed: int) -> ScenarioResult:
    """A packet-in storm saturates the control plane; API latency balloons.

    Load is modeled through the worker-contention path: the storm forces a
    wide worker pool (auto-scaling gone wrong) behind the global lock.
    """
    scenario = build_scenario(config_overrides={"workers": 12}, global_lock=True)

    def storm(result: ScenarioResult) -> None:
        rng = random.Random(seed)
        for i in range(300):
            mac = f"de:ad:{rng.randrange(256):02x}:{rng.randrange(256):02x}:00:{i % 256:02x}"
            result.switch.receive(
                2, Packet(src_mac=mac, dst_mac=BROADCAST_MAC, payload="storm")
            )

    return run_workload(scenario, extra_events=storm, seed=seed)


def _fault_port_flap_race(seed: int) -> ScenarioResult:
    """A port-down races with flow installation for a learned host.

    Non-deterministic: depending on event interleaving (seed) the stale
    flow forwards traffic into a downed port, blackholing host 1.
    """
    scenario = build_scenario()
    injected = {"migrated": False}

    def race(result: ScenarioResult) -> None:
        rng = random.Random(seed)
        if rng.random() < 0.55:
            # The losing interleaving: host 1 migrates to port 3 while the
            # flow installed toward port 1 is still live.  The controller
            # learns the new location (MAC table), but nobody invalidates
            # the stale switch flow entry, which keeps blackholing traffic
            # into the downed port.
            result.switch.set_port_state(1, False)
            result.runtime.handle_message(PortStatus(dpid=1, port=1, is_up=False))
            result.switch.attach_host(3, HOSTS[1])
            result.switch.receive(
                3, Packet(src_mac=HOSTS[1], dst_mac=BROADCAST_MAC, payload="gratuitous")
            )
            result.switch.receive(
                2, Packet(src_mac=HOSTS[2], dst_mac=HOSTS[1], payload="late")
            )
            injected["migrated"] = True

    result = run_workload(scenario, extra_events=race, seed=seed)
    if injected["migrated"]:
        reached_new_port = any(
            port == 3 and pkt.payload == "late"
            for port, pkt in result.switch.delivered
        )
        result.checks.append(
            ("forward: traffic follows the migrated host", reached_new_port)
        )
    return result


def _fault_malformed_frame(seed: int) -> ScenarioResult:
    """A frame with missing ethernet fields reaches an unvalidated handler.

    The multicast handler calls ``dst_mac.startswith`` without checking the
    header was parsed — a missing-validation crash triggered purely by a
    network event (the class Ravana/LegoSDN/Bouncer target).
    """
    scenario = build_scenario()

    def send_malformed(result: ScenarioResult) -> None:
        result.switch.receive(
            2, Packet(src_mac=HOSTS[2], dst_mac=None, payload="fuzz")  # type: ignore[arg-type]
        )

    return run_workload(scenario, extra_events=send_malformed, seed=seed)


class _FragileSyncApp:
    """A cluster-sync app whose store initializes asynchronously.

    Handling an event before the store is ready dereferences a
    half-initialized structure — a classic startup race.  Whether the first
    post-start event beats the initialization depends on timing.
    """

    name = "cluster_sync"
    critical = True

    def __init__(self, ready_delay: float) -> None:
        self.ready_delay = ready_delay
        self.ready = False

    def on_start(self, runtime) -> None:
        def initialize() -> None:
            self.ready = True

        runtime.scheduler.schedule(self.ready_delay, initialize)

    def on_packet_in(self, runtime, event) -> None:
        if event.packet.payload != "probe":
            return  # the sync app only reacts to cluster beacon frames
        if not self.ready:
            raise RuntimeError("sync store accessed before initialization")


def _fault_startup_race_crash(seed: int) -> ScenarioResult:
    """Non-deterministic: an event races the cluster-sync store init."""
    rng = random.Random(seed)
    scenario = build_scenario()
    app = _FragileSyncApp(ready_delay=rng.uniform(0.2, 2.0))
    scenario.runtime.add_app(app)
    app.on_start(scenario.runtime)

    def late_event(result: ScenarioResult) -> None:
        def deliver() -> None:
            result.switch.receive(
                3, Packet(src_mac=HOSTS[3], dst_mac=BROADCAST_MAC, payload="probe")
            )

        result.scheduler.schedule(1.0, deliver)

    return run_workload(scenario, extra_events=late_event, seed=seed)


def _fault_olt_reboot_no_timeout(seed: int) -> ScenarioResult:
    """VOL-549: OLT reboots after activation; adapter waits forever."""
    scenario = build_scenario(adapter_timeout=None)

    def reboot(result: ScenarioResult) -> None:
        result.scheduler.schedule(
            10.0, lambda: result.adapter.notify_reboot("olt-1")
        )

    return run_workload(scenario, extra_events=reboot, seed=seed)


def _fault_reboot_storm(seed: int) -> ScenarioResult:
    """Repeated OLT reboot cycles churn the adapter and the API slows down."""
    scenario = build_scenario(
        adapter_timeout=5.0, config_overrides={"workers": 10}, global_lock=True
    )

    def storm(result: ScenarioResult) -> None:
        for i in range(5):
            result.scheduler.schedule(
                8.0 + 4.0 * i, lambda: result.adapter.notify_reboot("olt-1")
            )

    return run_workload(scenario, extra_events=storm, seed=seed)


def _fault_global_lock_contention(seed: int) -> ScenarioResult:
    """CORD-1734: a wide worker pool serializes on the global lock; every
    API call slows down.  The fix is workers=1."""
    scenario = build_scenario(config_overrides={"workers": 8}, global_lock=True)
    return run_workload(scenario, seed=seed)


def _fault_stats_buffer_leak(seed: int) -> ScenarioResult:
    """A leaky stats buffer grows without bound until the process dies."""
    scenario = build_scenario()
    leak: list[str] = []

    def leaky_poll(result: ScenarioResult) -> None:
        def tick() -> None:
            if result.runtime.crashed:
                return
            leak.extend("x" * 64 for _ in range(512))
            if len(leak) > 4096:
                # The allocator gives up: model the OOM kill.
                result.runtime.crashed = True
                result.runtime.crash_reason = "MemoryError: stats buffer exhausted heap"
                return
            result.scheduler.schedule(3.0, tick)

        result.scheduler.schedule(3.0, tick)

    return run_workload(scenario, extra_events=leaky_poll, seed=seed)


class _FabricScenario:
    """Adapter exposing ``outcome()`` for fabric-level (multi-switch) faults."""

    def __init__(self, checks: list[tuple[str, bool]]) -> None:
        from repro.sdnsim.observers import Observation, OutcomeClassifier

        observation = Observation(
            crashed=False,
            crash_reason=None,
            failed_components=[],
            healthy_components=["forwarding"],
            error_count=0,
            stalled=False,
            checks=checks,
        )
        self._outcome = OutcomeClassifier().classify(observation)

    def outcome(self):
        return self._outcome


def _fault_stale_topology(seed: int) -> "_FabricScenario":
    """Global-visibility loss: a link dies but discovery hasn't refreshed.

    The paper: bugs triggered by network events significantly lower the
    global visibility that is SDN's key advantage.  Here routing installs a
    path over a link that died inside the discovery staleness window, so
    traffic blackholes even though an alternate path exists.
    """
    from repro.sdnsim.clock import EventScheduler
    from repro.sdnsim.datapath import Switch
    from repro.sdnsim.topology import Fabric, Link, LinkDiscovery, ShortestPathRouter

    h1, h2 = "aa:00:00:00:00:01", "aa:00:00:00:00:02"
    fabric = Fabric()
    for dpid in (1, 2, 3):
        fabric.add_switch(Switch(dpid, [1, 2, 3]))
    fabric.add_link(Link(1, 2, 2, 2))
    fabric.add_link(Link(2, 3, 3, 2))
    fabric.add_link(Link(1, 3, 3, 3))
    fabric.switches[1].attach_host(1, h1)
    fabric.switches[3].attach_host(1, h2)
    scheduler = EventScheduler()
    discovery = LinkDiscovery(fabric, scheduler, refresh_interval=30.0)
    router = ShortestPathRouter(discovery)

    # The direct s1-s3 link dies *after* the discovery snapshot...
    fabric.switches[1].set_port_state(3, False)
    fabric.switches[3].set_port_state(3, False)
    # ...and routing then programs the (stale) shortest path across it.
    path = router.install_path(h2, dst_dpid=3, dst_port=1, src_dpid=1)
    fabric.inject(1, 1, Packet(src_mac=h1, dst_mac=h2, payload="data"))
    delivered = any(
        port == 1 and pkt.payload == "data"
        for port, pkt in fabric.switches[3].delivered
    )
    return _FabricScenario(
        checks=[
            (
                "forward: traffic reaches host despite the link failure "
                f"(stale path {path})",
                delivered,
            )
        ]
    )


def default_catalog() -> list[FaultSpec]:
    """The representative fault per taxonomy cell, paper references included."""
    return [
        FaultSpec(
            fault_id="config-acl-typo",
            description="operator ACL typo blackholes legitimate traffic",
            trigger=Trigger.CONFIGURATION,
            root_cause=RootCause.HUMAN_MISCONFIGURATION,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.INCORRECT_BEHAVIOR,
            run=_fault_misconfigured_acl,
        ),
        FaultSpec(
            fault_id="config-missing-multicast",
            description="missing multicast config dereferenced (null pointer)",
            trigger=Trigger.CONFIGURATION,
            root_cause=RootCause.MISSING_LOGIC,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.FAIL_STOP,
            expected_mode=None,
            run=_fault_missing_multicast_config,
            paper_reference="CORD-2470",
        ),
        FaultSpec(
            fault_id="config-type-confusion",
            description="stringly-typed worker count crashes pool sizing",
            trigger=Trigger.CONFIGURATION,
            root_cause=RootCause.MEMORY,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.FAIL_STOP,
            expected_mode=None,
            run=_fault_config_type_confusion,
        ),
        FaultSpec(
            fault_id="external-tsdb-type",
            description="gauge/TSDB data-type mismatch kills the gauge",
            trigger=Trigger.EXTERNAL_CALLS,
            root_cause=RootCause.ECOSYSTEM_THIRD_PARTY,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.GRAY_FAILURE,
            run=_fault_tsdb_type_mismatch,
            paper_reference="FAUCET-355",
        ),
        FaultSpec(
            fault_id="external-auth-argflip",
            description="auth library argument order flip authorizes garbage",
            trigger=Trigger.EXTERNAL_CALLS,
            root_cause=RootCause.ECOSYSTEM_APP_LIBRARY,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.INCORRECT_BEHAVIOR,
            run=_fault_auth_argument_flip,
        ),
        FaultSpec(
            fault_id="external-tsdb-flaky",
            description="flapping TSDB causes intermittent scary error logs",
            trigger=Trigger.EXTERNAL_CALLS,
            root_cause=RootCause.ECOSYSTEM_SYSTEM_CALL,
            bug_type=BugType.NON_DETERMINISTIC,
            expected_symptom=Symptom.ERROR_MESSAGE,
            expected_mode=None,
            run=_fault_tsdb_flaky,
        ),
        FaultSpec(
            fault_id="external-lock-contention",
            description="worker pool serializes on global lock; APIs slow",
            trigger=Trigger.EXTERNAL_CALLS,
            root_cause=RootCause.CONCURRENCY,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.PERFORMANCE,
            expected_mode=None,
            run=_fault_global_lock_contention,
            paper_reference="CORD-1734",
        ),
        FaultSpec(
            fault_id="external-stats-leak",
            description="stats buffer leak grows until the process is OOM-killed",
            trigger=Trigger.EXTERNAL_CALLS,
            root_cause=RootCause.MEMORY,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.FAIL_STOP,
            expected_mode=None,
            run=_fault_stats_buffer_leak,
            paper_reference="ONOS-4859",
        ),
        FaultSpec(
            fault_id="network-mirror-broadcast",
            description="mirror app misses the broadcast-output case",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.MISSING_LOGIC,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.GRAY_FAILURE,
            run=_fault_mirror_broadcast_missing,
            paper_reference="FAUCET-1623",
        ),
        FaultSpec(
            fault_id="network-packetin-storm",
            description="packet-in storm saturates the control plane",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.LOAD,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.PERFORMANCE,
            expected_mode=None,
            run=_fault_packet_in_storm,
        ),
        FaultSpec(
            fault_id="network-malformed-frame",
            description="unvalidated malformed frame crashes the controller",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.MISSING_LOGIC,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.FAIL_STOP,
            expected_mode=None,
            run=_fault_malformed_frame,
        ),
        FaultSpec(
            fault_id="network-startup-race",
            description="event races the cluster-sync store initialization",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.CONCURRENCY,
            bug_type=BugType.NON_DETERMINISTIC,
            expected_symptom=Symptom.FAIL_STOP,
            expected_mode=None,
            run=_fault_startup_race_crash,
            paper_reference="ONOS-5992",
        ),
        FaultSpec(
            fault_id="network-portflap-race",
            description="port-down races flow install; traffic blackholes",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.CONCURRENCY,
            bug_type=BugType.NON_DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.INCORRECT_BEHAVIOR,
            run=_fault_port_flap_race,
        ),
        FaultSpec(
            fault_id="network-stale-topology",
            description="link dies in discovery staleness window; path blackholes",
            trigger=Trigger.NETWORK_EVENTS,
            root_cause=RootCause.MISSING_LOGIC,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.INCORRECT_BEHAVIOR,
            run=_fault_stale_topology,
            filterable=False,  # a link death is not a suppressible input
        ),
        FaultSpec(
            fault_id="reboot-olt-no-timeout",
            description="OLT reboot leaves VOLTHA core waiting forever",
            trigger=Trigger.HARDWARE_REBOOTS,
            root_cause=RootCause.MISSING_LOGIC,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.BYZANTINE,
            expected_mode=ByzantineMode.STALL,
            run=_fault_olt_reboot_no_timeout,
            paper_reference="VOL-549",
        ),
        FaultSpec(
            fault_id="reboot-storm-load",
            description="OLT reboot storm churns the adapter; APIs degrade",
            trigger=Trigger.HARDWARE_REBOOTS,
            root_cause=RootCause.LOAD,
            bug_type=BugType.DETERMINISTIC,
            expected_symptom=Symptom.PERFORMANCE,
            expected_mode=None,
            run=_fault_reboot_storm,
        ),
    ]


def catalog_by_id() -> dict[str, FaultSpec]:
    """The default catalog indexed by fault id."""
    return {spec.fault_id: spec for spec in default_catalog()}
