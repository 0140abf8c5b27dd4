"""Switch (datapath) model: ports, a flow table, and packet processing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError
from repro.sdnsim.messages import (
    Action,
    FlowMod,
    Match,
    Packet,
    PacketIn,
    PORT_CONTROLLER,
    PORT_DROP,
    PORT_FLOOD,
    PortStats,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sdnsim.controller import ControllerRuntime


@dataclass
class FlowEntry:
    """One installed flow: match, actions, priority, hit counter."""

    match: Match
    actions: tuple[Action, ...]
    priority: int
    packets: int = 0


@dataclass
class Port:
    """A switch port, optionally attached to a host MAC."""

    number: int
    is_up: bool = True
    host_mac: str | None = None
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0


class Switch:
    """An OpenFlow-style switch.

    Delivery callbacks record frames that egress each port; the observer
    uses them to check forwarding correctness (e.g. "did the mirror port see
    a copy of every frame?").
    """

    def __init__(self, dpid: int, port_numbers: list[int]) -> None:
        if not port_numbers:
            raise SimulationError(f"switch {dpid} needs at least one port")
        self.dpid = dpid
        self.ports: dict[int, Port] = {n: Port(n) for n in port_numbers}
        self.flow_table: list[FlowEntry] = []
        self.controller: "ControllerRuntime | None" = None
        #: Ports excluded from FLOOD (mirror/monitor ports are not part of
        #: the broadcast domain; they only receive explicit copies).
        self.exclude_from_flood: set[int] = set()
        #: egress log: (port, packet) tuples in delivery order
        self.delivered: list[tuple[int, Packet]] = []
        self._egress_hooks: list[Callable[[int, Packet], None]] = []

    # -- wiring -----------------------------------------------------------------
    def connect(self, controller: "ControllerRuntime") -> None:
        self.controller = controller
        controller.register_switch(self)

    def attach_host(self, port: int, mac: str) -> None:
        self._port(port).host_mac = mac

    def on_egress(self, hook: Callable[[int, Packet], None]) -> None:
        self._egress_hooks.append(hook)

    def _port(self, number: int) -> Port:
        try:
            return self.ports[number]
        except KeyError:
            raise SimulationError(f"switch {self.dpid} has no port {number}") from None

    # -- flow table ----------------------------------------------------------------
    def apply_flow_mod(self, flow_mod: FlowMod) -> None:
        """Install a flow, replacing any entry with an identical match."""
        if flow_mod.dpid != self.dpid:
            raise SimulationError(
                f"flow mod for dpid {flow_mod.dpid} sent to switch {self.dpid}"
            )
        self.flow_table = [
            entry for entry in self.flow_table if entry.match != flow_mod.match
        ]
        self.flow_table.append(
            FlowEntry(
                match=flow_mod.match,
                actions=flow_mod.actions,
                priority=flow_mod.priority,
            )
        )
        self.flow_table.sort(key=lambda e: -e.priority)

    def lookup(self, packet: Packet) -> FlowEntry | None:
        """Highest-priority matching entry, or None (table miss)."""
        for entry in self.flow_table:
            if entry.match.matches(packet):
                return entry
        return None

    # -- packet processing ------------------------------------------------------------
    def receive(self, in_port: int, packet: Packet) -> None:
        """A frame arrives on ``in_port``: match or punt to controller."""
        port = self._port(in_port)
        if not port.is_up:
            return  # frames on downed ports vanish
        port.rx_packets += 1
        port.rx_bytes += len(packet.payload) + 64
        entry = self.lookup(packet)
        if entry is None:
            if self.controller is not None:
                self.controller.handle_message(
                    PacketIn(dpid=self.dpid, in_port=in_port, packet=packet)
                )
            return
        entry.packets += 1
        self.execute_actions(packet, entry.actions, in_port=in_port)

    def execute_actions(
        self, packet: Packet, actions: tuple[Action, ...], *, in_port: int
    ) -> None:
        """Apply forwarding actions to a frame."""
        for action in actions:
            out = action.output_port
            if out == PORT_DROP:
                continue
            if out == PORT_CONTROLLER:
                if self.controller is not None:
                    self.controller.handle_message(
                        PacketIn(dpid=self.dpid, in_port=in_port, packet=packet)
                    )
                continue
            if out == PORT_FLOOD:
                for number, port in sorted(self.ports.items()):
                    if (
                        number != in_port
                        and port.is_up
                        and number not in self.exclude_from_flood
                    ):
                        self._emit(number, packet)
                continue
            if self._port(out).is_up:
                self._emit(out, packet)

    def _emit(self, port_number: int, packet: Packet) -> None:
        port = self._port(port_number)
        port.tx_packets += 1
        port.tx_bytes += len(packet.payload) + 64
        self.delivered.append((port_number, packet))
        for hook in self._egress_hooks:
            hook(port_number, packet)

    # -- port events / stats -----------------------------------------------------
    def set_port_state(self, port_number: int, is_up: bool) -> None:
        self._port(port_number).is_up = is_up

    def port_stats(self, port_number: int) -> PortStats:
        port = self._port(port_number)
        return PortStats(
            dpid=self.dpid,
            port=port_number,
            rx_packets=port.rx_packets,
            tx_packets=port.tx_packets,
            rx_bytes=port.rx_bytes,
            tx_bytes=port.tx_bytes,
        )
