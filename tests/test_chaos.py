"""Chaos-Monkey fuzzing (SS V-A takeaway)."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosMonkey, Perturbation, default_perturbations
from repro.errors import ReproError
from repro.faultinjection.scenario import build_scenario
from repro.taxonomy import Symptom, Trigger


def buggy_factory():
    return build_scenario(
        mirror_broadcast=False,
        multicast_guard=False,
        gauge_cast_types=False,
        adapter_timeout=None,
    )


def hardened_factory():
    return build_scenario(input_validation=True)


class TestPerturbations:
    def test_arsenal_covers_key_triggers(self):
        triggers = {p.trigger for p in default_perturbations()}
        assert {
            Trigger.NETWORK_EVENTS,
            Trigger.CONFIGURATION,
            Trigger.EXTERNAL_CALLS,
            Trigger.HARDWARE_REBOOTS,
        } == triggers

    def test_names_unique(self):
        names = [p.name for p in default_perturbations()]
        assert len(names) == len(set(names))


class TestChaosMonkey:
    def test_deterministic_for_seed(self):
        a = ChaosMonkey(buggy_factory, seed=3).run_campaign(runs=6)
        b = ChaosMonkey(buggy_factory, seed=3).run_campaign(runs=6)
        assert [f.run_index for f in a.findings] == [f.run_index for f in b.findings]
        assert [f.perturbations for f in a.findings] == [
            f.perturbations for f in b.findings
        ]

    def test_buggy_build_yields_findings(self):
        report = ChaosMonkey(buggy_factory, seed=1).run_campaign(runs=10)
        assert report.finding_rate > 0.5
        assert report.symptoms_found()

    def test_buggy_build_finds_more_than_patched(self):
        buggy = ChaosMonkey(buggy_factory, seed=1).run_campaign(runs=15)
        patched = ChaosMonkey(build_scenario, seed=1).run_campaign(runs=15)
        assert buggy.finding_rate >= patched.finding_rate

    def test_input_validation_cuts_crashes(self):
        """SS V-A: error-guarding logic at the input boundary prevents the
        malformed-frame crash class chaos exposes."""

        def crashes(report):
            return sum(
                1 for f in report.findings
                if f.outcome.symptom is Symptom.FAIL_STOP
            )

        plain = ChaosMonkey(build_scenario, seed=1).run_campaign(runs=15)
        hardened = ChaosMonkey(hardened_factory, seed=1).run_campaign(runs=15)
        assert crashes(hardened) < crashes(plain)

    def test_trigger_coverage_recorded(self):
        report = ChaosMonkey(build_scenario, seed=2, intensity=4).run_campaign(runs=8)
        assert sum(report.triggers_exercised.values()) == 8 * 4

    def test_first_finding_lookup(self):
        report = ChaosMonkey(buggy_factory, seed=1).run_campaign(runs=10)
        crash = report.first_finding(Symptom.FAIL_STOP)
        if crash is not None:
            assert crash.outcome.symptom is Symptom.FAIL_STOP

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            ChaosMonkey(build_scenario, intensity=0)
        with pytest.raises(ReproError):
            ChaosMonkey(build_scenario, perturbations=[])
        with pytest.raises(ReproError):
            ChaosMonkey(build_scenario).run_campaign(runs=0)

    def test_custom_perturbation(self):
        applied = []

        def noop(scenario, rng):
            applied.append(True)

        monkey = ChaosMonkey(
            build_scenario,
            perturbations=[Perturbation("noop", Trigger.NETWORK_EVENTS, noop)],
            intensity=2,
            seed=0,
        )
        report = monkey.run_campaign(runs=2)
        assert len(applied) == 4
        assert report.finding_rate == 0.0  # noop perturbations break nothing

    def test_run_once_crash_boundary(self):
        """An exception escaping the workload is a controller crash, not a
        chaos-campaign abort: the run still yields a classified outcome."""

        def explode(scenario, rng):
            raise RuntimeError("perturbation blew up mid-run")

        monkey = ChaosMonkey(
            build_scenario,
            perturbations=[Perturbation("explode", Trigger.NETWORK_EVENTS, explode)],
            intensity=1,
            seed=0,
        )
        names, outcome = monkey.run_once(0)
        assert names == ("explode",)
        assert outcome.symptom is Symptom.FAIL_STOP
        assert "RuntimeError" in outcome.detail
        # The whole campaign survives crashing runs and records the finding.
        report = monkey.run_campaign(runs=3)
        assert len(report.findings) == 3

    def test_hardened_knob_builds_guarded_scenarios(self):
        monkey = ChaosMonkey(seed=5, hardened=True)
        assert monkey.ledger is not None
        _, outcome = monkey.run_once(0)
        assert outcome is not None
        plain = ChaosMonkey(seed=5)
        assert plain.ledger is None

    def test_run_once_bit_for_bit_deterministic(self):
        """Two fresh monkeys with the same seed produce identical run_once
        results — perturbation names AND the full classified outcome."""
        for index in range(5):
            first = ChaosMonkey(buggy_factory, seed=11).run_once(index)
            second = ChaosMonkey(buggy_factory, seed=11).run_once(index)
            names_a, outcome_a = first
            names_b, outcome_b = second
            assert names_a == names_b
            assert outcome_a == outcome_b
            assert first == second


class TestCluster:
    def test_onos_5992_case(self):
        from repro.faultinjection import run_case

        outcome = run_case("ONOS-5992")
        assert outcome.buggy.symptom is Symptom.BYZANTINE
        assert outcome.fix_removes_symptom

    def test_failover_reassigns_devices(self):
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["a", "b", "c"], scheduler)
        for dpid in range(4):
            cluster.assign_mastership(dpid)
        victim = cluster.master_of(0)
        cluster.kill_instance(victim)
        scheduler.run(until=10)
        assert cluster.orphaned_devices() == []
        assert not cluster.is_wedged()
        assert cluster.master_of(0) != victim

    def test_buggy_quorum_wedges_on_single_death(self):
        from repro.errors import SimulationError
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(
            ["a", "b", "c"], scheduler, quorum_counts_live_members=False
        )
        cluster.assign_mastership(1)
        cluster.kill_instance("c")
        scheduler.run(until=10)
        assert cluster.is_wedged()
        with pytest.raises(SimulationError, match="no quorum"):
            cluster.assign_mastership(2)

    def test_majority_loss_wedges_even_fixed_cluster(self):
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["a", "b", "c"], scheduler)
        cluster.kill_instance("a")
        cluster.kill_instance("b")
        scheduler.run(until=10)
        # A single survivor of a 3-node cluster still has a live majority of
        # itself under live-member counting; leadership survives.
        assert cluster.leader == "c"

    def test_kill_leader_failover_drains_orphans(self):
        """Killing the *leader* re-elects, reassigns its devices, and leaves
        the cluster un-wedged once the election delay elapses."""
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["a", "b", "c"], scheduler)
        for dpid in range(6):
            cluster.assign_mastership(dpid)
        leader = cluster.leader
        assert leader is not None
        cluster.kill_instance(leader)
        # Before the election delay the leader's devices sit orphaned.
        assert cluster.orphaned_devices()
        scheduler.run(until=10)
        assert cluster.orphaned_devices() == []
        assert not cluster.is_wedged()
        assert cluster.leader is not None and cluster.leader != leader
        for dpid in range(6):
            master = cluster.master_of(dpid)
            assert master is not None and master != leader

    def test_sequential_kills_keep_draining_orphans(self):
        """Failover is repeatable: a second kill after the first settles
        still drains every orphan onto the last survivor."""
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["a", "b", "c"], scheduler)
        for dpid in range(4):
            cluster.assign_mastership(dpid)
        cluster.kill_instance("a")
        scheduler.run(until=10)
        assert cluster.orphaned_devices() == []
        cluster.kill_instance("b")
        scheduler.run(until=20)
        assert cluster.orphaned_devices() == []
        assert not cluster.is_wedged()
        assert all(cluster.master_of(dpid) == "c" for dpid in range(4))

    def test_buggy_quorum_never_unwedges(self):
        """ONOS-5992 regression: with total-member quorum the wedge persists
        forever — no later event clears it — while the fixed knob recovers."""
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        for counts_live, expect_wedged in ((False, True), (True, False)):
            scheduler = EventScheduler()
            cluster = ControllerCluster(
                ["a", "b", "c"], scheduler,
                quorum_counts_live_members=counts_live,
            )
            for dpid in range(3):
                cluster.assign_mastership(dpid)
            cluster.kill_instance("a")
            scheduler.run(until=60)
            assert cluster.is_wedged() is expect_wedged
            assert bool(cluster.orphaned_devices()) is expect_wedged

    def test_live_members_follow_every_kill(self):
        """The kept live list equals a scan of the instances after every
        kill, a repeated kill included, and callers get their own copy."""
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["c", "a", "d", "b"], scheduler)
        for victim in ("d", "a", "d", "b"):
            cluster.kill_instance(victim)
            scheduler.run(until=scheduler.clock.now + 5)
            scanned = sorted(
                node for node, inst in cluster.instances.items() if inst.is_alive
            )
            assert cluster.live_members == scanned
        cluster.live_members.append("a")
        assert cluster.live_members == ["c"]

    def test_duplicate_nodes_rejected(self):
        from repro.errors import SimulationError
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        with pytest.raises(SimulationError):
            ControllerCluster(["a", "a"], EventScheduler())

    def test_single_live_node_retains_quorum(self):
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        # A 1-node cluster is its own majority under both quorum bases.
        for counts_live in (True, False):
            cluster = ControllerCluster(
                ["solo"], scheduler, quorum_counts_live_members=counts_live
            )
            assert cluster.has_quorum()
            assert cluster.leader == "solo"
            assert cluster.assign_mastership(1) == "solo"

    def test_all_members_dead_is_not_wedged(self):
        from repro.sdnsim.clock import EventScheduler
        from repro.sdnsim.cluster import ControllerCluster

        scheduler = EventScheduler()
        cluster = ControllerCluster(["solo"], scheduler)
        cluster.kill_instance("solo")
        scheduler.run(until=10)
        assert not cluster.has_quorum()
        assert cluster.leader is None
        # Wedged means live members exist without quorum; a fully dead
        # cluster is simply down.
        assert not cluster.is_wedged()
