"""The distributed control plane the adversary perturbs.

A :class:`ControllerCluster` (mastership, quorum, failover) plus per-node
*mastership views* and a set of devices exchanging real control messages —
``PacketIn`` → reactive ``FlowMod`` installs, ``EchoRequest``/``EchoReply``
liveness probes, ``MastershipAnnouncement`` view synchronization — with a
:class:`MessageInterposer` in front of every endpoint.  The failure modes
the paper's hardest bug classes need all emerge from message-level effects:

* a partition makes the majority re-assign mastership while the isolated
  old master keeps a stale self-claim → **dual mastership**;
* a kill under the buggy quorum knob wedges the cluster (ONOS-5992) and
  strands **orphaned devices**;
* drops/corruption of ``PacketIn``/``FlowMod`` break **flow convergence**;
* clock skew and drops starve **echo liveness**.

``hardened=True`` is the PR-1-style build: fixed quorum accounting,
term-checked view application, one retransmission for unanswered echoes and
uninstalled flows (priced as RETRY in the ledger), and anti-entropy view
sync after a partition heals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro._collector import _collector_paused
from repro.adversary.interposer import MessageInterposer
from repro.adversary.invariants import (
    Invariant,
    InvariantViolation,
    MonitorSet,
)
from repro.adversary.schedule import CHANNEL_ACTIONS, FaultAction, FaultEvent, FaultSchedule
from repro.errors import ReproError
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.sdnsim.cluster import ClusterInstance, ControllerCluster
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.messages import (
    Action,
    EchoReply,
    EchoRequest,
    FlowMod,
    Match,
    Packet,
    PacketIn,
)
from repro.sdnsim.observers import Outcome
from repro.taxonomy import Trigger


@dataclass(frozen=True)
class MastershipAnnouncement:
    """Cluster-internal view-sync message: ``master`` owns ``dpid`` at ``term``."""

    dpid: int
    master: str
    term: int


@dataclass
class DeviceState:
    """One switch as the adversary world sees it, and its southbound port."""

    dpid: int
    flow_table: set[str] = field(default_factory=set)
    #: seq -> send time, filled in seq order on a non-decreasing clock and
    #: only ever popped, so the overdue entries are always a prefix.
    pending_echoes: dict[int, float] = field(default_factory=dict)
    echo_seq: int = 0
    echoes_answered: int = 0

    def deliver(self, message, source: str | None) -> None:
        """Install a flow, or settle the probe an echo reply answers."""
        if isinstance(message, FlowMod):
            self.flow_table.add(_match_key(message.match))
        elif isinstance(message, EchoReply):
            if self.pending_echoes.pop(message.sequence, None) is not None:
                self.echoes_answered += 1


def _match_key(match: Match) -> str:
    return f"{match.dst_mac}/{match.vlan}"


def _corrupt_device_message(message):
    """Bit-flip semantics for southbound messages.

    A corrupted ``FlowMod`` installs an entry for the wrong match (so the
    requested flow never converges); a corrupted ``EchoReply`` carries a
    bogus sequence number (so the probe stays pending); anything else is
    unparseable and dropped.
    """
    if isinstance(message, FlowMod):
        return FlowMod(
            dpid=message.dpid,
            match=Match(dst_mac="de:ad:be:ef:00:00"),
            actions=message.actions,
            priority=message.priority,
        )
    if isinstance(message, EchoReply):
        return EchoReply(dpid=message.dpid, sequence=-1)
    return None


class _NodeInbox:
    """One controller node's endpoint, and everything a message delivered
    to it may read or write: the node's liveness, its mastership view,
    its clock skew and the device channels its replies leave on.

    It holds those pieces, never the world.  The interposer in front of
    the node keeps the inbox's bound methods as its hooks and the world
    keeps the interposer, so one reference back to the world would make
    every world a reference cycle that only the cyclic collector frees.
    """

    def __init__(
        self,
        node: str,
        instance: ClusterInstance,
        claims: dict[int, set[str]],
        dev_channels: dict[int, MessageInterposer],
        scheduler: EventScheduler,
        hardened: bool,
    ) -> None:
        self.node = node
        self.instance = instance
        #: dpid -> (term, master) as this node believes it.  Written only
        #: through ``_set_view``, which keeps ``claims`` in step.
        self.view: dict[int, tuple[int, str]] = {}
        self.claims = claims
        self.dev_channels = dev_channels
        self.scheduler = scheduler
        self.hardened = hardened
        self.skew = 0.0
        #: The node sources a partition cuts off from this node.  The world
        #: rewrites it whenever a partition starts or heals.
        self.cut: frozenset[str] = frozenset()
        self.source = f"node:{node}"

    def _set_view(self, dpid: int, term: int, master: str) -> None:
        self.view[dpid] = (term, master)
        if master == self.node:
            self.claims[dpid].add(self.node)
        else:
            self.claims[dpid].discard(self.node)

    def reachable(self, source: str | None) -> bool:
        # Devices reach every node (management network): only node
        # sources are ever cut.
        return source not in self.cut

    def corrupt(self, message):
        if isinstance(message, MastershipAnnouncement):
            # The classic state corruption: the receiving node decodes the
            # announcement as naming *itself* master.
            return MastershipAnnouncement(
                dpid=message.dpid, master=self.node, term=message.term
            )
        return None  # unparseable frame: dropped

    def deliver(self, message, source: str | None) -> None:
        if not self.instance.is_alive:
            return
        if isinstance(message, MastershipAnnouncement):
            term, _master = self.view.get(message.dpid, (0, ""))
            if self.hardened and message.term <= term:
                return  # stale or duplicate announcement rejected
            self._set_view(message.dpid, message.term, message.master)
        elif isinstance(message, EchoRequest):
            reply = EchoReply(dpid=message.dpid, sequence=message.sequence)
            self.scheduler.schedule(
                max(0.0, self.skew),
                partial(self.dev_channels[message.dpid].feed, reply, self.source),
            )
        elif isinstance(message, PacketIn):
            mod = FlowMod(
                dpid=message.dpid,
                match=Match(dst_mac=message.packet.dst_mac),
                actions=(Action(output_port=message.in_port),),
            )
            self.scheduler.schedule(
                max(0.0, self.skew),
                partial(self.dev_channels[message.dpid].feed, mod, self.source),
            )


class AdversaryWorld:
    """A small replicated control plane wired through interposers."""

    #: Seconds an echo may go unanswered before echo liveness breaks.
    echo_deadline = 10.0
    #: Seconds a requested flow may take to reach its device.
    convergence_horizon = 8.0
    #: Seconds after a disruption before the settling monitors judge.
    settle_horizon = 3.0

    def __init__(
        self,
        *,
        nodes: tuple[str, ...] = ("a", "b", "c"),
        dpids: tuple[int, ...] = (1, 2, 3),
        hardened: bool = False,
        ledger: ResilienceLedger | None = None,
        invariants: list[Invariant] | None = None,
        echo_interval: float = 5.0,
        flows: int | None = None,
    ) -> None:
        if len(nodes) < 2:
            raise ReproError("the adversary world needs at least two nodes")
        if flows is not None and flows < 1:
            raise ReproError("flows must be >= 1 when given")
        if echo_interval <= 0:
            raise ReproError("echo_interval must be positive")
        self.nodes = tuple(nodes)
        self.dpids = tuple(dpids)
        self.hardened = hardened
        self.ledger = ledger
        #: Total workload flow requests per run (None = one per device per
        #: round, the hand-sized legacy workload).  Large parameterized
        #: topologies cap this so run cost scales with the workload, not
        #: with switches x rounds.
        self.flows = flows
        self.echo_interval = echo_interval
        self.scheduler = EventScheduler()
        # Bare builds carry the ONOS-5992 quorum accounting; hardened ones
        # count live members (the fix).
        self.cluster = ControllerCluster(
            list(nodes),
            self.scheduler,
            quorum_counts_live_members=hardened,
        )
        #: dpid -> the nodes whose own view names themselves its master, the
        #: index the mastership-uniqueness monitor reads on every tick.
        self.claims: dict[int, set[str]] = {d: set() for d in self.dpids}
        self.partitions: list[frozenset[str]] | None = None
        self.devices: dict[int, DeviceState] = {d: DeviceState(d) for d in dpids}
        #: (dpid, match key) -> time the device first requested the flow.
        self.issued_flows: dict[tuple[int, str], float] = {}
        self.last_disruption = -1e9
        self._terms: dict[int, int] = {}
        self._truth: dict[int, str] = {}
        self._echo_retried: set[tuple[int, int]] = set()
        self._flow_retried: set[tuple[int, str]] = set()
        self.monitors = MonitorSet(ledger=ledger)
        if invariants is not None:
            self.monitors.invariants = invariants

        # Every hook an interposer keeps is a method of its endpoint's own
        # state (a device, a node inbox), never of the world: see _NodeInbox.
        self.dev_channels: dict[int, MessageInterposer] = {
            d: MessageInterposer(
                self.scheduler,
                device.deliver,
                name=f"dev:{d}",
                corrupter=_corrupt_device_message,
            )
            for d, device in self.devices.items()
        }
        self._inboxes: dict[str, _NodeInbox] = {
            n: _NodeInbox(
                n,
                self.cluster.instances[n],
                self.claims,
                self.dev_channels,
                self.scheduler,
                hardened,
            )
            for n in nodes
        }
        #: node -> dpid -> (term, master) as that node believes it: each
        #: inbox's view, written only through its ``_set_view``.
        self.views: dict[str, dict[int, tuple[int, str]]] = {
            n: inbox.view for n, inbox in self._inboxes.items()
        }
        self.node_channels: dict[str, MessageInterposer] = {
            n: MessageInterposer(
                self.scheduler,
                inbox.deliver,
                name=inbox.source,
                reachable=inbox.reachable,
                corrupter=inbox.corrupt,
            )
            for n, inbox in self._inboxes.items()
        }

        # Converged start: every device mastered, every view in agreement.
        for dpid in self.dpids:
            master = self.cluster.assign_mastership(dpid)
            self._terms[dpid] = 1
            self._truth[dpid] = master
            for inbox in self._inboxes.values():
                inbox._set_view(dpid, 1, master)

    # -- partition topology ------------------------------------------------------
    def _set_partitions(self, partitions: list[frozenset[str]] | None) -> None:
        """Install (or, with ``None``, heal) a partition, and rewrite each
        inbox's cut: the peers outside the first group holding it."""
        self.partitions = partitions
        for node, inbox in self._inboxes.items():
            inbox.cut = frozenset(
                f"node:{peer}"
                for peer in self.nodes
                if not self._same_group(node, peer)
            )

    def _same_group(self, a: str, b: str) -> bool:
        if self.partitions is None:
            return True
        for group in self.partitions:
            if a in group:
                return b in group
        return a == b

    def _majority_group(self) -> frozenset[str] | None:
        """The partition side holding the most live members (None on a tie)."""
        if self.partitions is None:
            return None
        sized = sorted(
            self.partitions,
            key=lambda g: (sum(1 for n in g if self.cluster.instances[n].is_alive), sorted(g)),
            reverse=True,
        )
        if len(sized) > 1:
            top = sum(1 for n in sized[0] if self.cluster.instances[n].is_alive)
            second = sum(1 for n in sized[1] if self.cluster.instances[n].is_alive)
            if top == second:
                return None
        return sized[0]

    # -- workload ----------------------------------------------------------------
    def _send_echo(self, dpid: int) -> None:
        device = self.devices[dpid]
        device.echo_seq += 1
        seq = device.echo_seq
        device.pending_echoes[seq] = self.scheduler.clock.now
        self._transmit_echo(dpid, seq)
        if self.hardened:
            self.scheduler.schedule(
                self.echo_deadline * 0.5, partial(self._maybe_retry_echo, dpid, seq)
            )

    def _transmit_echo(self, dpid: int, seq: int) -> None:
        master = self.cluster.master_of(dpid)
        if master is None:
            return  # nowhere to send: the pending echo will go stale
        self.node_channels[master].feed(
            EchoRequest(dpid=dpid, sequence=seq), source=f"dev:{dpid}"
        )

    def _maybe_retry_echo(self, dpid: int, seq: int) -> None:
        device = self.devices[dpid]
        if seq not in device.pending_echoes or (dpid, seq) in self._echo_retried:
            return
        self._echo_retried.add((dpid, seq))
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.RETRY,
                component=f"dev:{dpid}",
                time=self.scheduler.clock.now,
                detail=f"echo seq={seq} retransmitted",
                trigger=Trigger.NETWORK_EVENTS,
            )
        self._transmit_echo(dpid, seq)

    def _request_flow(self, dpid: int, round_index: int) -> None:
        dst_mac = f"aa:00:00:00:{round_index % 256:02x}:{dpid % 256:02x}"
        key = _match_key(Match(dst_mac=dst_mac))
        self.issued_flows[(dpid, key)] = self.scheduler.clock.now
        self._transmit_packet_in(dpid, dst_mac)
        if self.hardened:
            self.scheduler.schedule(
                self.convergence_horizon * 0.6,
                partial(self._maybe_retry_flow, dpid, dst_mac, key),
            )

    def _transmit_packet_in(self, dpid: int, dst_mac: str) -> None:
        master = self.cluster.master_of(dpid)
        if master is None:
            return
        packet_in = PacketIn(
            dpid=dpid,
            in_port=1,
            packet=Packet(src_mac=f"02:00:00:00:00:{dpid:02x}", dst_mac=dst_mac),
        )
        self.node_channels[master].feed(packet_in, source=f"dev:{dpid}")

    def _maybe_retry_flow(self, dpid: int, dst_mac: str, key: str) -> None:
        if key in self.devices[dpid].flow_table or (dpid, key) in self._flow_retried:
            return
        self._flow_retried.add((dpid, key))
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.RETRY,
                component=f"dev:{dpid}",
                time=self.scheduler.clock.now,
                detail=f"flow {key!r} re-requested",
                trigger=Trigger.NETWORK_EVENTS,
            )
        self._transmit_packet_in(dpid, dst_mac)

    # -- mastership sync ---------------------------------------------------------
    def _announce(self, dpid: int, master: str, term: int) -> None:
        for node in self.nodes:
            self.node_channels[node].feed(
                MastershipAnnouncement(dpid=dpid, master=master, term=term),
                source=f"node:{master}",
            )

    def _reassign(self, dpid: int, new_master: str) -> None:
        self._terms[dpid] += 1
        self._truth[dpid] = new_master
        self.cluster.mastership[dpid] = new_master
        self._announce(dpid, new_master, self._terms[dpid])

    def _partition_failover(self) -> None:
        """The majority side declares cross-partition masters dead and
        re-assigns their devices; the isolated old masters keep stale
        self-claims — the dual-mastership mechanism."""
        majority = self._majority_group()
        if majority is None:
            return
        live_majority = sorted(
            n for n in majority if self.cluster.instances[n].is_alive
        )
        if not live_majority or not self.cluster.has_quorum():
            return
        load = {n: 0 for n in live_majority}
        for master in self._truth.values():
            if master in load:
                load[master] += 1
        for dpid in sorted(self.dpids):
            if self._truth.get(dpid) in live_majority:
                continue
            chosen = min(load, key=lambda n: (load[n], n))
            load[chosen] += 1
            self._reassign(dpid, chosen)

    def _sync_after_kill(self) -> None:
        """Propagate the cluster's failover decisions as announcements."""
        for dpid in sorted(self.dpids):
            actual = self.cluster.mastership.get(dpid)
            if actual is not None and actual != self._truth.get(dpid):
                self._terms[dpid] += 1
                self._truth[dpid] = actual
                self._announce(dpid, actual, self._terms[dpid])

    def _heal(self) -> None:
        self._set_partitions(None)
        self.last_disruption = self.scheduler.clock.now
        if self.hardened:
            # Anti-entropy: re-broadcast the truth; term checks make every
            # view converge and stale self-claims die.
            for dpid in sorted(self.dpids):
                self._announce(dpid, self._truth[dpid], self._terms[dpid])

    # -- schedule execution ------------------------------------------------------
    def load_schedule(self, schedule: FaultSchedule) -> None:
        for event in schedule:
            self.scheduler.schedule_at(event.time, partial(self._apply_event, event))

    def _apply_event(self, event: FaultEvent) -> None:
        if event.action in CHANNEL_ACTIONS:
            self._channel_for(event.target).arm(event.action, event.param)
        elif event.action is FaultAction.PARTITION:
            self._set_partitions(_parse_partition(event.target, self.nodes))
            self.last_disruption = self.scheduler.clock.now
            self.scheduler.schedule(
                self.cluster.election_delay, self._partition_failover
            )
        elif event.action is FaultAction.HEAL:
            self._heal()
        elif event.action is FaultAction.CLOCK_SKEW:
            inbox = self._inboxes.get(event.target)
            if inbox is None:
                raise ReproError(f"unknown node {event.target!r} for clock skew")
            inbox.skew += float(event.param)
        elif event.action is FaultAction.KILL:
            if event.target not in self.cluster.instances:
                raise ReproError(f"unknown node {event.target!r} for kill")
            if self.cluster.instances[event.target].is_alive:
                self.cluster.kill_instance(event.target)
                self.last_disruption = self.scheduler.clock.now
                self.scheduler.schedule(
                    self.cluster.election_delay + 0.001, self._sync_after_kill
                )

    def _channel_for(self, target: str) -> MessageInterposer:
        kind, _, ident = target.partition(":")
        if kind == "node" and ident in self.node_channels:
            return self.node_channels[ident]
        if kind == "dev":
            try:
                dpid = int(ident)
            except ValueError:
                raise ReproError(f"malformed device target {target!r}") from None
            if dpid in self.dev_channels:
                return self.dev_channels[dpid]
        raise ReproError(f"unknown channel target {target!r}")

    # -- running -----------------------------------------------------------------
    def run(self, *, horizon: float = 90.0, check_interval: float = 1.0) -> None:
        """Drive the workload plus schedule to ``horizon``, monitoring as we go.

        However it ends, it empties the event heap: what is still pending
        at the horizon (deliveries, retries, a failover) would run in no
        later call, and every entry holds the world or a part of it.
        """
        try:
            if check_interval <= 0:
                raise ReproError("check_interval must be positive")
            self._schedule_workload(horizon, check_interval)
            self.scheduler.run(until=horizon)
            self.monitors.run(self)
        finally:
            self.scheduler.clear()

    def _schedule_workload(self, horizon: float, check_interval: float) -> None:
        """Echo probes, flow requests and monitor ticks up to ``horizon``."""
        schedule_at = self.scheduler.schedule_at
        t = self.echo_interval
        while t < horizon:
            for dpid in self.dpids:
                schedule_at(t, partial(self._send_echo, dpid))
            t += self.echo_interval
        if self.flows is None:
            round_index = 0
            t = 3.0
            while t < horizon * 0.8:
                for dpid in self.dpids:
                    schedule_at(t, partial(self._request_flow, dpid, round_index))
                round_index += 1
                t += 7.0
        else:
            # K flows round-robin over devices, spread across the active
            # window so mid-run disruptions always have traffic to break.
            window = max(horizon * 0.8 - 3.0, 1.0)
            step = window / self.flows
            for index in range(self.flows):
                dpid = self.dpids[index % len(self.dpids)]
                schedule_at(
                    3.0 + index * step,
                    partial(self._request_flow, dpid, index // len(self.dpids)),
                )
        tick = partial(self.monitors.run, self)
        t = check_interval
        while t <= horizon:
            schedule_at(t, tick)
            t += check_interval


def _parse_partition(spec: str, nodes: tuple[str, ...]) -> list[frozenset[str]]:
    groups = [
        frozenset(part.strip() for part in group.split(",") if part.strip())
        for group in spec.split("|")
        if group.strip()
    ]
    if not groups:
        raise ReproError(f"empty partition spec {spec!r}")
    mentioned = {n for g in groups for n in g}
    unknown = mentioned - set(nodes)
    if unknown:
        raise ReproError(f"partition names unknown nodes {sorted(unknown)}")
    groups.extend(frozenset({n}) for n in nodes if n not in mentioned)
    return groups


@dataclass
class AdversaryResult:
    """One adversary run: the schedule, the world, and what broke."""

    schedule: FaultSchedule
    world: AdversaryWorld
    violations: list[InvariantViolation]

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    @property
    def first_violation(self) -> InvariantViolation | None:
        return self.violations[0] if self.violations else None

    def by_invariant(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def violated_subjects(self) -> set[tuple[str, str]]:
        """Distinct (invariant, subject) pairs that broke at least once.

        The fair A/B unit: a permanently-wedged cluster and a flapping
        (repeatedly breaking and healing) probe each count once per subject,
        so the edge-triggered re-fires don't skew arm comparisons.
        """
        return {(v.invariant, v.subject) for v in self.violations}

    def distinct_by_invariant(self) -> dict[str, int]:
        """Violating-subject counts per invariant (see ``violated_subjects``)."""
        counts: dict[str, int] = {}
        for invariant, _subject in self.violated_subjects():
            counts[invariant] = counts.get(invariant, 0) + 1
        return counts

    def outcome(self) -> Outcome:
        """Map the run onto the taxonomy, like every other campaign does."""
        first = self.first_violation
        if first is None:
            return Outcome(symptom=None, detail="no invariant violated")
        return Outcome(
            symptom=first.symptom,
            byzantine_mode=first.byzantine_mode,
            detail=f"{first.invariant} [{first.subject}]: {first.detail}",
        )


@_collector_paused()
def run_adversary(
    schedule: FaultSchedule,
    *,
    hardened: bool = False,
    ledger: ResilienceLedger | None = None,
    nodes: tuple[str, ...] = ("a", "b", "c"),
    dpids: tuple[int, ...] = (1, 2, 3),
    horizon: float = 90.0,
    invariants: list[Invariant] | None = None,
    flows: int | None = None,
    echo_interval: float = 5.0,
    check_interval: float = 1.0,
) -> AdversaryResult:
    """Deterministically replay ``schedule`` against a fresh world.

    The replay runs with the cyclic collector paused: a world holds no
    reference cycle once its run has emptied the event heap, so reference
    counting frees all of it, and the collector would only traverse the
    live world again and again to find nothing.
    """
    world = AdversaryWorld(
        nodes=nodes, dpids=dpids, hardened=hardened, ledger=ledger,
        invariants=invariants, flows=flows, echo_interval=echo_interval,
    )
    world.load_schedule(schedule)
    world.run(
        horizon=max(horizon, schedule.horizon + 20.0),
        check_interval=check_interval,
    )
    return AdversaryResult(
        schedule=schedule, world=world, violations=list(world.monitors.violations)
    )


#: Seeds :func:`find_violating_schedule` tries before giving up, and the
#: simulated seconds its schedules span.
_MAX_SEEDS = 64
_HORIZON = 60.0


def find_violating_schedule(
    start_seed: int,
    *,
    events: int = 20,
    hardened: bool = False,
) -> tuple[int, FaultSchedule, AdversaryResult]:
    """Scan seeds from ``start_seed`` until a schedule violates an invariant."""
    from repro.adversary.schedule import random_schedule

    for offset in range(_MAX_SEEDS):
        seed = start_seed + offset
        schedule = random_schedule(seed, events=events, horizon=_HORIZON)
        result = run_adversary(schedule, hardened=hardened, horizon=_HORIZON + 30.0)
        if result.violated:
            return seed, schedule, result
    raise ReproError(
        f"no violating schedule in {_MAX_SEEDS} seeds from {start_seed} "
        f"({events} events, horizon {_HORIZON})"
    )
