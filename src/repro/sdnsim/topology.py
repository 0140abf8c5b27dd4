"""Multi-switch topologies: links, discovery, and shortest-path routing.

Extends the single-switch scenario to the fabric-scale setting ONOS/CORD
operate in: switches joined by inter-switch links, an LLDP-style discovery
service maintaining the controller's topology graph, and a routing app that
programs end-to-end shortest paths.  The discovery service's *staleness
window* models the visibility loss the paper highlights ("the result of
many of these bugs is that this [global] visibility is significantly
lowered").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.datapath import Switch
from repro.sdnsim.messages import Action, FlowMod, Match, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True)
class Link:
    """A unidirectional inter-switch link (install both directions for
    bidirectional connectivity)."""

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int


class Fabric:
    """A set of switches wired by links, with frame propagation.

    Frames emitted on a link's source port are re-injected at the link's
    destination; host ports deliver normally.  Propagation is synchronous
    (zero latency) but depth-limited to catch forwarding loops — a loop is
    reported as a :class:`SimulationError` rather than an infinite cascade.
    """

    MAX_HOPS = 32

    def __init__(self) -> None:
        self.switches: dict[int, Switch] = {}
        self.links: list[Link] = []
        self._egress_map: dict[tuple[int, int], tuple[int, int]] = {}
        self._hop_budget: dict[int, int] = {}
        self._frame_counter = 0

    def add_switch(self, switch: Switch) -> None:
        if switch.dpid in self.switches:
            raise SimulationError(f"duplicate dpid {switch.dpid}")
        self.switches[switch.dpid] = switch
        switch.on_egress(lambda port, pkt, dpid=switch.dpid: self._carry(dpid, port, pkt))

    def add_link(self, link: Link) -> None:
        for dpid, port in ((link.src_dpid, link.src_port), (link.dst_dpid, link.dst_port)):
            if dpid not in self.switches:
                raise SimulationError(f"link references unknown switch {dpid}")
            if port not in self.switches[dpid].ports:
                raise SimulationError(f"switch {dpid} has no port {port}")
        self.links.append(link)
        self._egress_map[(link.src_dpid, link.src_port)] = (link.dst_dpid, link.dst_port)
        reverse = Link(link.dst_dpid, link.dst_port, link.src_dpid, link.src_port)
        self.links.append(reverse)
        self._egress_map[(reverse.src_dpid, reverse.src_port)] = (
            reverse.dst_dpid,
            reverse.dst_port,
        )

    def _carry(self, dpid: int, port: int, packet: Packet) -> None:
        """Move a frame across a link, if the egress port is a link port."""
        target = self._egress_map.get((dpid, port))
        if target is None:
            return  # host port: normal delivery, already recorded
        budget = self._hop_budget.get(self._frame_counter, self.MAX_HOPS)
        if budget <= 0:
            raise SimulationError(
                f"forwarding loop detected carrying {packet.src_mac}->{packet.dst_mac}"
            )
        self._hop_budget[self._frame_counter] = budget - 1
        dst_dpid, dst_port = target
        self.switches[dst_dpid].receive(dst_port, packet)

    def inject(self, dpid: int, port: int, packet: Packet) -> None:
        """Inject a frame at a host port, with a fresh loop budget."""
        self._frame_counter += 1
        self._hop_budget[self._frame_counter] = self.MAX_HOPS
        self.switches[dpid].receive(port, packet)

    def graph(self) -> nx.DiGraph:
        """The physical topology as a directed graph."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.switches)
        for link in self.links:
            g.add_edge(link.src_dpid, link.dst_dpid, src_port=link.src_port)
        return g


class LinkDiscovery:
    """LLDP-style topology discovery with a refresh interval.

    The controller's *view* of the fabric lags reality by up to
    ``refresh_interval`` simulated seconds: links added or removed in the
    fabric appear in :meth:`view` only after the next refresh — the window
    in which routing computes paths over a stale graph.
    """

    def __init__(
        self, fabric: Fabric, scheduler: EventScheduler, *, refresh_interval: float = 5.0
    ) -> None:
        if refresh_interval <= 0:
            raise SimulationError("refresh_interval must be positive")
        self.fabric = fabric
        self.scheduler = scheduler
        self.refresh_interval = refresh_interval
        self._view = fabric.graph()
        self.refreshes = 0
        self._schedule()

    def _schedule(self) -> None:
        self.scheduler.schedule(self.refresh_interval, self._refresh)

    def _refresh(self) -> None:
        self._view = self.fabric.graph()
        self.refreshes += 1
        self._schedule()

    def view(self) -> nx.DiGraph:
        """The controller's (possibly stale) topology graph."""
        return self._view


class ShortestPathRouter:
    """Proactive shortest-path routing over the discovered topology.

    ``install_path`` programs per-switch flows for a host MAC along the
    shortest path in the *discovered* view.  If discovery is stale, the
    programmed path can traverse dead links — traffic blackholes until the
    next refresh + reinstall, reproducing the visibility-loss failure mode.
    """

    def __init__(self, discovery: LinkDiscovery) -> None:
        self.discovery = discovery
        self.installed_paths: dict[str, list[int]] = {}

    def compute_path(self, src_dpid: int, dst_dpid: int) -> list[int]:
        """Switch-level shortest path in the current controller view."""
        import networkx as nx

        view = self.discovery.view()
        try:
            return nx.shortest_path(view, src_dpid, dst_dpid)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise SimulationError(
                f"no path {src_dpid} -> {dst_dpid} in the controller view"
            ) from exc

    def install_path(
        self, dst_mac: str, dst_dpid: int, dst_port: int, src_dpid: int
    ) -> list[int]:
        """Program flows for ``dst_mac`` along src->dst; returns the path."""
        path = self.compute_path(src_dpid, dst_dpid)
        fabric = self.fabric
        for here, nxt in zip(path, path[1:]):
            out_port = self._port_toward(here, nxt)
            fabric.switches[here].apply_flow_mod(
                FlowMod(
                    dpid=here,
                    match=Match(dst_mac=dst_mac),
                    actions=(Action(out_port),),
                    priority=150,
                )
            )
        fabric.switches[dst_dpid].apply_flow_mod(
            FlowMod(
                dpid=dst_dpid,
                match=Match(dst_mac=dst_mac),
                actions=(Action(dst_port),),
                priority=150,
            )
        )
        self.installed_paths[dst_mac] = path
        return path

    def _port_toward(self, src_dpid: int, dst_dpid: int) -> int:
        view = self.discovery.view()
        data = view.get_edge_data(src_dpid, dst_dpid)
        if data is None:
            raise SimulationError(f"no link {src_dpid} -> {dst_dpid} in view")
        return data["src_port"]

    @property
    def fabric(self) -> Fabric:
        return self.discovery.fabric
