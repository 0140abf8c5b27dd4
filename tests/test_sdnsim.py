"""Simulator substrate: clock, datapath, controller, apps, services, optical."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sdnsim.apps import AclApp, L2LearningSwitch, MirrorApp, MulticastHandler, StatsGauge
from repro.sdnsim.clock import EventScheduler, SimClock
from repro.sdnsim.config import ControllerConfig, validate_config
from repro.sdnsim.controller import ControllerRuntime
from repro.sdnsim.datapath import Switch
from repro.sdnsim.messages import (
    Action,
    BROADCAST_MAC,
    EchoRequest,
    FlowMod,
    Match,
    Packet,
    PORT_DROP,
    PORT_FLOOD,
    PortStats,
)
from repro.sdnsim.optical import OltDevice, OnuDevice, VolthaAdapter
from repro.sdnsim.services import (
    AuthService,
    ServiceTypeError,
    ServiceUnavailableError,
    TimeSeriesDB,
)


class TestClockScheduler:
    def test_clock_monotonic(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        log = []
        sched.schedule(2.0, lambda: log.append("b"))
        sched.schedule(1.0, lambda: log.append("a"))
        sched.run()
        assert log == ["a", "b"]

    def test_equal_times_run_in_scheduling_order(self):
        sched = EventScheduler()
        log = []
        for name in "abc":
            sched.schedule(1.0, lambda n=name: log.append(n))
        sched.run()
        assert log == ["a", "b", "c"]

    def test_until_stops_early_and_advances_clock(self):
        sched = EventScheduler()
        log = []
        sched.schedule(10.0, lambda: log.append("late"))
        sched.run(until=5.0)
        assert log == [] and sched.clock.now == 5.0
        sched.run()
        assert log == ["late"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_cascade_guard(self):
        sched = EventScheduler()

        def loop():
            sched.schedule(0.0, loop)

        sched.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="cascade"):
            sched.run(max_events=100)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_processing_order_is_sorted(self, delays):
        sched = EventScheduler()
        seen = []
        for d in delays:
            sched.schedule(d, lambda d=d: seen.append(d))
        sched.run()
        assert seen == sorted(seen)


class TestMessages:
    def test_empty_match_wildcards_every_field(self):
        assert Match().matches(Packet(src_mac="aa:01", dst_mac="aa:02", vlan=7))

    @pytest.mark.parametrize(
        ("match", "packet", "expected"),
        [
            (Match(dst_mac="aa:02"), Packet("aa:01", "aa:02"), True),
            (Match(dst_mac="aa:02"), Packet("aa:01", "aa:03"), False),
            (Match(vlan=10), Packet("aa:01", "aa:02", vlan=10), True),
            (Match(vlan=10), Packet("aa:01", "aa:02", vlan=0), False),
            (Match(dst_mac="aa:02", vlan=10), Packet("aa:01", "aa:02", vlan=20), False),
        ],
        ids=["dst-hit", "dst-miss", "vlan-hit", "vlan-miss", "both-one-miss"],
    )
    def test_match_fields(self, match, packet, expected):
        assert match.matches(packet) is expected

    @pytest.mark.parametrize(
        ("dst_mac", "expected"), [(BROADCAST_MAC, True), ("aa:02", False)]
    )
    def test_broadcast_detection(self, dst_mac, expected):
        assert Packet(src_mac="aa:01", dst_mac=dst_mac).is_broadcast is expected

    def test_port_stats_fields_are_the_four_counters(self):
        stats = PortStats(
            dpid=1, port=2, rx_packets=3, tx_packets=4, rx_bytes=50, tx_bytes=60
        )
        assert dict(stats.as_fields()) == {
            "rx_packets": 3,
            "tx_packets": 4,
            "rx_bytes": 50,
            "tx_bytes": 60,
        }


def build_switch():
    sched = EventScheduler()
    config = ControllerConfig.load({})
    runtime = ControllerRuntime(sched, config)
    switch = Switch(1, [1, 2, 3])
    switch.connect(runtime)
    runtime.add_app(L2LearningSwitch())
    runtime.start()
    return sched, runtime, switch


class TestDatapath:
    def test_table_miss_punts_to_controller(self):
        _, runtime, switch = build_switch()
        switch.receive(1, Packet(src_mac="aa:01", dst_mac="aa:02"))
        # The learning switch floods unknown destinations.
        assert any(port == 2 for port, _ in switch.delivered)
        assert any(port == 3 for port, _ in switch.delivered)

    def test_learning_installs_flow_and_forwards(self):
        _, runtime, switch = build_switch()
        switch.receive(1, Packet(src_mac="aa:01", dst_mac=BROADCAST_MAC))
        switch.delivered.clear()
        switch.receive(2, Packet(src_mac="aa:02", dst_mac="aa:01"))
        assert [(1, "aa:01")] == [
            (port, pkt.dst_mac) for port, pkt in switch.delivered
        ]
        assert switch.lookup(Packet(src_mac="x", dst_mac="aa:01")) is not None

    def test_flow_priority_ordering(self):
        _, runtime, switch = build_switch()
        switch.apply_flow_mod(
            FlowMod(dpid=1, match=Match(), actions=(Action(2),), priority=1)
        )
        switch.apply_flow_mod(
            FlowMod(
                dpid=1, match=Match(dst_mac="aa:09"),
                actions=(Action(PORT_DROP),), priority=500,
            )
        )
        switch.receive(1, Packet(src_mac="s", dst_mac="aa:09"))
        assert switch.delivered == []  # drop rule wins

    def test_flow_replacement_same_match(self):
        _, _, switch = build_switch()
        match = Match(dst_mac="aa:01")
        switch.apply_flow_mod(FlowMod(dpid=1, match=match, actions=(Action(2),)))
        switch.apply_flow_mod(FlowMod(dpid=1, match=match, actions=(Action(3),)))
        entries = [e for e in switch.flow_table if e.match == match]
        assert len(entries) == 1 and entries[0].actions[0].output_port == 3

    def test_downed_port_swallows_frames(self):
        _, _, switch = build_switch()
        switch.apply_flow_mod(
            FlowMod(dpid=1, match=Match(), actions=(Action(2),))
        )
        switch.set_port_state(2, False)
        switch.receive(1, Packet(src_mac="a", dst_mac="b"))
        assert switch.delivered == []

    def test_flood_excludes_ingress_and_excluded(self):
        _, _, switch = build_switch()
        switch.exclude_from_flood = {3}
        switch.apply_flow_mod(
            FlowMod(dpid=1, match=Match(), actions=(Action(PORT_FLOOD),))
        )
        switch.receive(1, Packet(src_mac="a", dst_mac=BROADCAST_MAC))
        assert {port for port, _ in switch.delivered} == {2}

    def test_wrong_dpid_flowmod_rejected(self):
        _, _, switch = build_switch()
        with pytest.raises(SimulationError):
            switch.apply_flow_mod(
                FlowMod(dpid=9, match=Match(), actions=(Action(1),))
            )

    def test_port_stats_counters(self):
        _, _, switch = build_switch()
        switch.receive(1, Packet(src_mac="a", dst_mac=BROADCAST_MAC, payload="xy"))
        stats = switch.port_stats(1)
        assert stats.rx_packets == 1
        assert switch.port_stats(2).tx_packets == 1

    def test_switch_needs_ports(self):
        with pytest.raises(SimulationError):
            Switch(1, [])


class TestControllerRuntime:
    def test_echo_replies(self):
        _, runtime, _ = build_switch()
        runtime.handle_message(EchoRequest(dpid=1, sequence=7))
        assert runtime.echo_replies[-1].sequence == 7

    def test_critical_app_crash_takes_controller_down(self):
        sched = EventScheduler()
        runtime = ControllerRuntime(sched, ControllerConfig.load({}))
        switch = Switch(1, [1, 2])
        switch.connect(runtime)

        class Exploder:
            name = "exploder"
            critical = True

            def on_start(self, rt):
                pass

            def on_packet_in(self, rt, ev):
                raise RuntimeError("boom")

        runtime.add_app(Exploder())
        runtime.start()
        switch.receive(1, Packet(src_mac="a", dst_mac="b"))
        assert runtime.crashed
        assert "boom" in runtime.crash_reason

    def test_noncritical_app_crash_degrades_only(self):
        sched = EventScheduler()
        runtime = ControllerRuntime(sched, ControllerConfig.load({}))
        switch = Switch(1, [1, 2])
        switch.connect(runtime)

        class Flaky:
            name = "flaky"
            critical = False

            def on_start(self, rt):
                pass

            def on_packet_in(self, rt, ev):
                raise ValueError("ouch")

        runtime.add_app(Flaky())
        runtime.add_app(L2LearningSwitch())
        runtime.start()
        switch.receive(1, Packet(src_mac="a", dst_mac="b"))
        assert not runtime.crashed
        assert runtime.failed_components == ["flaky"]
        # Forwarding still works.
        switch.receive(2, Packet(src_mac="b", dst_mac="a"))
        assert any(port == 1 for port, _ in switch.delivered)

    def test_failed_app_receives_no_more_events(self):
        sched = EventScheduler()
        runtime = ControllerRuntime(sched, ControllerConfig.load({}))
        switch = Switch(1, [1, 2])
        switch.connect(runtime)
        calls = []

        class Flaky:
            name = "flaky"
            critical = False

            def on_start(self, rt):
                pass

            def on_packet_in(self, rt, ev):
                calls.append(1)
                raise ValueError("once")

        runtime.add_app(Flaky())
        runtime.start()
        switch.receive(1, Packet(src_mac="a", dst_mac="b"))
        switch.receive(1, Packet(src_mac="a", dst_mac="c"))
        assert len(calls) == 1

    def test_global_lock_contention_model(self):
        sched = EventScheduler()
        cfg_many = ControllerConfig.load({"workers": 8})
        with_lock = ControllerRuntime(sched, cfg_many, global_lock=True)
        without_lock = ControllerRuntime(sched, cfg_many, global_lock=False)
        assert with_lock.api_call("x") > without_lock.api_call("x")

    def test_crashed_controller_rejects_api(self):
        sched = EventScheduler()
        runtime = ControllerRuntime(sched, ControllerConfig.load({}))
        runtime.crashed = True
        with pytest.raises(SimulationError):
            runtime.api_call("x")


class TestConfig:
    def test_valid_config_passes(self):
        validate_config(
            {
                "vlans": {},
                "acls": [{"src_mac": "a", "dst_mac": "b"}],
                "mirror": {1: {"source_port": 1, "mirror_port": 2}},
                "workers": 4,
            }
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown configuration key"):
            validate_config({"vlnas": {}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError, match="must be"):
            validate_config({"workers": "four"})

    def test_mirror_spec_fields_required(self):
        with pytest.raises(ConfigurationError, match="mirror entry"):
            validate_config({"mirror": {1: {"source_port": 1}}})

    def test_acl_fields_required(self):
        with pytest.raises(ConfigurationError, match="acl rule"):
            validate_config({"acls": [{"src_mac": "a"}]})

    def test_load_without_validation_admits_bad_config(self):
        config = ControllerConfig.load({"workers": "four"}, validate=False)
        assert config.raw["workers"] == "four"

    def test_accessors_default_on_empty_config(self):
        config = ControllerConfig.load({})
        assert config.workers == 1
        assert config.mirror_specs == {}
        assert config.acl_rules == []
        assert config.multicast is None

    def test_accessors_read_the_loaded_values(self):
        raw = {
            "acls": [{"src_mac": "a", "dst_mac": "b"}],
            "mirror": {1: {"source_port": 1, "mirror_port": 2}},
            "workers": 4,
        }
        config = ControllerConfig.load(raw)
        assert config.workers == 4
        assert config.mirror_specs == {1: {"source_port": 1, "mirror_port": 2}}
        assert config.acl_rules == [{"src_mac": "a", "dst_mac": "b"}]
        # The accessors hand out copies: mutating one leaves the config alone.
        config.acl_rules.clear()
        assert len(config.acl_rules) == 1


class TestServices:
    def test_tsdb_v2_rejects_strings(self):
        db = TimeSeriesDB(api_version=2)
        with pytest.raises(ServiceTypeError):
            db.write("m", {"x": "12"}, timestamp=0.0)

    def test_tsdb_v1_coerces_strings(self):
        db = TimeSeriesDB(api_version=1)
        db.write("m", {"x": "12"}, timestamp=0.0)
        assert db.points[0].fields["x"] == 12.0

    def test_tsdb_v1_rejects_non_numeric_strings(self):
        db = TimeSeriesDB(api_version=1)
        with pytest.raises(ServiceTypeError):
            db.write("m", {"x": "twelve"}, timestamp=0.0)

    def test_tsdb_unavailable(self):
        db = TimeSeriesDB(available=False)
        with pytest.raises(ServiceUnavailableError):
            db.write("m", {"x": 1}, timestamp=0.0)

    def test_tsdb_count_by_measurement(self):
        db = TimeSeriesDB()
        db.write("a", {"x": 1}, timestamp=0.0)
        db.write("b", {"x": 1}, timestamp=0.0)
        assert db.count("a") == 1 and db.count() == 2

    def test_auth_argument_flip(self):
        v1 = AuthService(api_version=1)
        assert v1.authenticate("aa:bb", "secret")
        assert v1.is_authorized("aa:bb")
        v2 = AuthService(api_version=2)
        # Same call against the new API grants the *secret* string.
        assert v2.authenticate("aa:bb", "se:cret")
        assert v2.is_authorized("se:cret")
        assert not v2.is_authorized("aa:bb")


class TestOptical:
    def test_activation_completes(self):
        sched = EventScheduler()
        adapter = VolthaAdapter(sched, connect_timeout=None)
        olt = OltDevice("o1")
        olt.attach_onu(OnuDevice(serial="n1", olt_port=1))
        adapter.manage(olt)
        adapter.activate("o1")
        assert adapter.core_blocked
        sched.run(until=10)
        assert not adapter.core_blocked
        assert olt.onus[0].is_active

    def test_vol549_stall_without_timeout(self):
        sched = EventScheduler()
        adapter = VolthaAdapter(sched, connect_timeout=None)
        olt = OltDevice("o1")
        adapter.manage(olt)
        adapter.activate("o1")
        sched.run(until=10)
        adapter.notify_reboot("o1")
        sched.run(until=500)
        assert adapter.core_blocked  # stuck forever

    def test_vol549_fix_with_timeout(self):
        sched = EventScheduler()
        adapter = VolthaAdapter(sched, connect_timeout=5.0)
        olt = OltDevice("o1")
        adapter.manage(olt)
        adapter.activate("o1")
        sched.run(until=10)
        adapter.notify_reboot("o1")
        sched.run(until=60)
        assert not adapter.core_blocked
        assert adapter.timeouts_fired >= 1

    def test_reboot_deactivates_onus(self):
        sched = EventScheduler()
        adapter = VolthaAdapter(sched, connect_timeout=5.0)
        olt = OltDevice("o1")
        olt.attach_onu(OnuDevice(serial="n1", olt_port=1))
        adapter.manage(olt)
        adapter.activate("o1")
        sched.run(until=10)
        adapter.notify_reboot("o1")
        assert not olt.onus[0].is_active

    def test_duplicate_manage_rejected(self):
        sched = EventScheduler()
        adapter = VolthaAdapter(sched)
        olt = OltDevice("o1")
        adapter.manage(olt)
        with pytest.raises(SimulationError):
            adapter.manage(olt)
