"""Multi-switch fabric, discovery staleness, shortest-path routing."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.datapath import Switch
from repro.sdnsim.messages import Action, FlowMod, Match, Packet
from repro.sdnsim.topology import Fabric, Link, LinkDiscovery, ShortestPathRouter

H1 = "aa:00:00:00:00:01"
H2 = "aa:00:00:00:00:02"


def triangle_fabric() -> Fabric:
    """Three switches in a triangle; hosts on port 1 of s1 and s3.

    Inter-switch ports: s1:2<->s2:2, s2:3<->s3:2, s1:3<->s3:3.
    """
    fabric = Fabric()
    for dpid in (1, 2, 3):
        fabric.add_switch(Switch(dpid, [1, 2, 3]))
    fabric.add_link(Link(1, 2, 2, 2))
    fabric.add_link(Link(2, 3, 3, 2))
    fabric.add_link(Link(1, 3, 3, 3))
    fabric.switches[1].attach_host(1, H1)
    fabric.switches[3].attach_host(1, H2)
    return fabric


class TestFabric:
    def test_duplicate_switch_rejected(self):
        fabric = Fabric()
        fabric.add_switch(Switch(1, [1]))
        with pytest.raises(SimulationError):
            fabric.add_switch(Switch(1, [1]))

    def test_link_validation(self):
        fabric = Fabric()
        fabric.add_switch(Switch(1, [1]))
        with pytest.raises(SimulationError, match="unknown switch"):
            fabric.add_link(Link(1, 1, 9, 1))
        fabric.add_switch(Switch(2, [1]))
        with pytest.raises(SimulationError, match="no port"):
            fabric.add_link(Link(1, 7, 2, 1))

    def test_frames_cross_links(self):
        fabric = triangle_fabric()
        fabric.switches[1].apply_flow_mod(
            FlowMod(dpid=1, match=Match(dst_mac=H2), actions=(Action(3),))
        )
        fabric.switches[3].apply_flow_mod(
            FlowMod(dpid=3, match=Match(dst_mac=H2), actions=(Action(1),))
        )
        fabric.inject(1, 1, Packet(src_mac=H1, dst_mac=H2))
        delivered = [
            (port, pkt.dst_mac) for port, pkt in fabric.switches[3].delivered
        ]
        assert (1, H2) in delivered

    def test_forwarding_loop_detected(self):
        fabric = triangle_fabric()
        # Program a 2-switch loop: s1 -> s2 -> s1 -> ...
        fabric.switches[1].apply_flow_mod(
            FlowMod(dpid=1, match=Match(dst_mac=H2), actions=(Action(2),))
        )
        fabric.switches[2].apply_flow_mod(
            FlowMod(dpid=2, match=Match(dst_mac=H2), actions=(Action(2),))
        )
        with pytest.raises(SimulationError, match="forwarding loop"):
            fabric.inject(1, 1, Packet(src_mac=H1, dst_mac=H2))

    def test_graph_reflects_links(self):
        graph = triangle_fabric().graph()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 6  # 3 bidirectional links


class TestDiscovery:
    def test_view_lags_fabric_changes(self):
        fabric = triangle_fabric()
        scheduler = EventScheduler()
        discovery = LinkDiscovery(fabric, scheduler, refresh_interval=5.0)
        # Add a new link after the initial snapshot.
        for dpid in (4,):
            fabric.add_switch(Switch(dpid, [1, 2]))
        fabric.add_link(Link(3, 1, 4, 2))  # reuses s3 port1? no: port1 is host
        assert 4 not in discovery.view()
        scheduler.run(until=6.0)
        assert 4 in discovery.view()

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            LinkDiscovery(triangle_fabric(), EventScheduler(), refresh_interval=0)


class TestRouting:
    def setup_routing(self):
        fabric = triangle_fabric()
        scheduler = EventScheduler()
        discovery = LinkDiscovery(fabric, scheduler, refresh_interval=5.0)
        router = ShortestPathRouter(discovery)
        return fabric, scheduler, discovery, router

    def test_shortest_path_prefers_direct_link(self):
        _, _, _, router = self.setup_routing()
        assert router.compute_path(1, 3) == [1, 3]

    def test_install_path_end_to_end(self):
        fabric, _, _, router = self.setup_routing()
        path = router.install_path(H2, dst_dpid=3, dst_port=1, src_dpid=1)
        assert path == [1, 3]
        fabric.inject(1, 1, Packet(src_mac=H1, dst_mac=H2))
        assert any(
            port == 1 and pkt.dst_mac == H2
            for port, pkt in fabric.switches[3].delivered
        )

    def test_no_path_raises(self):
        fabric = Fabric()
        fabric.add_switch(Switch(1, [1]))
        fabric.add_switch(Switch(2, [1]))
        scheduler = EventScheduler()
        router = ShortestPathRouter(LinkDiscovery(fabric, scheduler))
        with pytest.raises(SimulationError, match="no path"):
            router.compute_path(1, 2)

    def test_stale_view_blackholes_until_refresh(self):
        """The visibility-loss failure mode: the direct s1-s3 link dies, the
        stale view still routes over it, traffic blackholes; after refresh a
        reinstall goes around via s2."""
        fabric, scheduler, discovery, router = self.setup_routing()
        router.install_path(H2, dst_dpid=3, dst_port=1, src_dpid=1)
        # Kill the direct link's physical ports (both directions).
        fabric.switches[1].set_port_state(3, False)
        fabric.switches[3].set_port_state(3, False)
        fabric.inject(1, 1, Packet(src_mac=H1, dst_mac=H2, payload="lost"))
        lost = any(
            pkt.payload == "lost" for _p, pkt in fabric.switches[3].delivered
        )
        assert not lost  # blackholed through the stale path

        # Remove the dead link from the fabric, refresh discovery, reroute.
        fabric.links = [
            l for l in fabric.links
            if {(l.src_dpid, l.src_port), (l.dst_dpid, l.dst_port)}
            != {(1, 3), (3, 3)}
        ]
        fabric._egress_map.pop((1, 3), None)
        fabric._egress_map.pop((3, 3), None)
        scheduler.run(until=6.0)
        path = router.install_path(H2, dst_dpid=3, dst_port=1, src_dpid=1)
        assert path == [1, 2, 3]
        fabric.inject(1, 1, Packet(src_mac=H1, dst_mac=H2, payload="retry"))
        assert any(
            pkt.payload == "retry" and port == 1
            for port, pkt in fabric.switches[3].delivered
        )
