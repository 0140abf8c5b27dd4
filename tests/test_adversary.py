"""Control-plane adversary: interposition, invariants, minimization."""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest

from repro.adversary import (
    CHANNEL_ACTIONS,
    AdversaryWorld,
    FaultAction,
    FaultEvent,
    FaultSchedule,
    Invariant,
    InvariantViolation,
    MessageInterposer,
    MonitorSet,
    default_invariants,
    find_violating_schedule,
    minimize_schedule,
    random_schedule,
    run_adversary,
)
from repro.adversary.interposer import REORDER_FLUSH_AFTER
from repro.errors import ReproError, ScheduleError
from repro.fuzzing import build_topology, seed_schedule
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.sdnsim.clock import EventScheduler
from repro.taxonomy import Symptom, Trigger


class TestSchedule:
    def test_events_sorted_and_replayable(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "node:a", FaultAction.DROP, 2)
        schedule.add(1.0, "dev:1", FaultAction.DELAY, 4.0)
        assert [e.time for e in schedule] == [1.0, 5.0]
        assert schedule.horizon == 5.0

    def test_json_round_trip(self):
        schedule = random_schedule(3, events=10)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.to_dicts() == schedule.to_dicts()

    def test_subset_preserves_order(self):
        schedule = random_schedule(1, events=8)
        sub = schedule.subset([0, 3, 5])
        assert len(sub) == 3
        assert sub.events == [schedule.events[i] for i in (0, 3, 5)]

    def test_random_schedule_deterministic(self):
        assert random_schedule(9, events=15) == random_schedule(9, events=15)
        assert random_schedule(9, events=15) != random_schedule(10, events=15)

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ReproError):
            FaultSchedule([FaultEvent(-1.0, "node:a", FaultAction.DROP)])
        with pytest.raises(ReproError):
            FaultSchedule.from_dicts([{"time": 1.0, "action": "drop"}])
        with pytest.raises(ReproError):
            random_schedule(0, events=0)

    def test_unknown_action_names_known_ones(self):
        with pytest.raises(ScheduleError, match="unknown fault action"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "explode"}
            )
        with pytest.raises(ScheduleError, match="drop"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "explode"}
            )

    def test_missing_fields_listed(self):
        with pytest.raises(ScheduleError, match="target"):
            FaultEvent.from_dict({"time": 1.0, "action": "drop"})
        with pytest.raises(ScheduleError, match="time.*target|target.*time"):
            FaultEvent.from_dict({"action": "drop"})

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(ScheduleError, match="must be a number"):
            FaultEvent.from_dict(
                {"time": "soon", "target": "node:a", "action": "drop"}
            )
        with pytest.raises(ScheduleError, match="must be a number"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "drop",
                 "param": True}
            )

    def test_bad_json_shapes_rejected(self):
        with pytest.raises(ScheduleError, match="not valid JSON"):
            FaultSchedule.from_json("{nope")
        with pytest.raises(ScheduleError, match="list of events"):
            FaultSchedule.from_json('{"time": 1.0}')
        with pytest.raises(ScheduleError, match="must be a JSON object"):
            FaultSchedule.from_dicts(["drop"])

    def test_round_trip_after_validation(self):
        schedule = random_schedule(5, events=12)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        again = FaultSchedule.from_dicts(restored.to_dicts())
        assert again.to_dicts() == schedule.to_dicts()


class TestInterposer:
    def _make(self, **kwargs):
        scheduler = EventScheduler()
        delivered: list[object] = []
        interposer = MessageInterposer(
            scheduler,
            lambda message, _source: delivered.append(message),
            name="test",
            **kwargs,
        )
        return scheduler, interposer, delivered

    def test_drop_budget_consumes_messages(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DROP, 2)
        for i in range(4):
            interposer.feed(i)
        scheduler.run(until=1)
        assert delivered == [2, 3]

    def test_duplicate_delivers_twice(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DUPLICATE, 1)
        interposer.feed("m")
        scheduler.run(until=1)
        assert delivered == ["m", "m"]

    def test_delay_defers_on_sim_clock(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DELAY, 7.5)
        interposer.feed("late")
        scheduler.run(until=7.0)
        assert delivered == []
        scheduler.run(until=8.0)
        assert delivered == ["late"]

    def test_reorder_lets_successor_overtake(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.REORDER, 1)
        interposer.feed("first")
        interposer.feed("second")
        scheduler.run(until=1)
        assert delivered == ["second", "first"]

    def test_reorder_flushes_without_successor(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.REORDER, 1)
        interposer.feed("only")
        scheduler.run(until=REORDER_FLUSH_AFTER - 0.5)
        assert delivered == []
        scheduler.run(until=30)
        assert delivered == ["only"]

    def test_corrupt_uses_domain_corrupter(self):
        scheduler, interposer, delivered = self._make(
            corrupter=lambda m: m.upper() if m != "poison" else None
        )
        interposer.arm(FaultAction.CORRUPT, 2)
        interposer.feed("msg")
        interposer.feed("poison")
        scheduler.run(until=1)
        assert delivered == ["MSG"]

    def test_partition_oracle_cuts_traffic(self):
        scheduler, interposer, delivered = self._make(
            reachable=lambda source: source != "isolated"
        )
        interposer.feed("kept", source="peer")
        interposer.feed("cut", source="isolated")
        scheduler.run(until=1)
        assert delivered == ["kept"]

    def test_non_channel_action_rejected(self):
        _scheduler, interposer, _delivered = self._make()
        with pytest.raises(ReproError):
            interposer.arm(FaultAction.KILL, 0)
        assert FaultAction.KILL not in CHANNEL_ACTIONS


class TestAdversaryRuns:
    def test_replay_is_deterministic(self):
        schedule = random_schedule(4, events=20)
        a = run_adversary(schedule)
        b = run_adversary(schedule)
        assert a.violations == b.violations
        assert a.violated_subjects() == b.violated_subjects()

    def test_partition_produces_dual_mastership(self):
        """Isolate a master; the majority re-elects while the isolated node
        keeps its stale self-claim — mastership-uniqueness fires."""
        schedule = FaultSchedule()
        schedule.add(5.0, "a|b,c", FaultAction.PARTITION)
        result = run_adversary(schedule, horizon=30.0)
        assert "mastership-uniqueness" in result.by_invariant()
        outcome = result.outcome()
        assert outcome.symptom is Symptom.BYZANTINE

    def test_kill_wedges_buggy_cluster_only(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        bare = run_adversary(schedule, horizon=40.0)
        hardened = run_adversary(schedule, hardened=True, horizon=40.0)
        assert "quorum-safety" in bare.by_invariant()
        assert not hardened.violated

    def test_violations_priced_into_ledger(self):
        ledger = ResilienceLedger()
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        result = run_adversary(schedule, ledger=ledger, horizon=40.0)
        assert result.violated
        assert ledger.count(ResilienceEvent.VIOLATION) == len(result.violations)

    def test_random_schedules_violate_bare_world(self):
        for seed in range(3):
            schedule = random_schedule(seed, events=20)
            assert run_adversary(schedule).violated, f"seed {seed}"

    def test_healthy_world_stays_clean(self):
        schedule = FaultSchedule()
        schedule.add(1.0, "node:a", FaultAction.DELAY, 0.5)
        result = run_adversary(schedule, horizon=30.0)
        assert not result.violated

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_non_positive_intervals_rejected_before_scheduling(self, interval):
        """A zero interval would schedule echoes or checks forever; a
        negative one would fail later, scheduling into the past.  Both
        are refused before anything is scheduled; nothing here runs."""
        with pytest.raises(ReproError, match="echo_interval must be positive"):
            AdversaryWorld(echo_interval=interval)
        world = AdversaryWorld()
        with pytest.raises(ReproError, match="check_interval must be positive"):
            world.run(horizon=30.0, check_interval=interval)
        assert world.scheduler.pending == 0


def _reference_mastership_uniqueness(world):
    """Dual-mastership check that re-reads every node's liveness per dpid."""
    for dpid in world.dpids:
        claimants = sorted(
            node
            for node, view in world.views.items()
            if world.cluster.instances[node].is_alive
            and view.get(dpid, (0, None))[1] == node
        )
        if len(claimants) > 1:
            yield (
                f"dpid={dpid}",
                f"dual mastership: {', '.join(claimants)} all claim dpid {dpid}",
            )


def _reference_quorum_safety(world):
    """Wedge check that re-reads every instance's liveness and re-derives
    quorum from it."""
    cluster = world.cluster
    live = sorted(node for node, inst in cluster.instances.items() if inst.is_alive)
    if cluster.quorum_counts_live_members:
        quorum = len(live) >= len(live) // 2 + 1 if live else False
    else:
        quorum = len(live) == cluster.configured_size and (
            len(live) >= cluster.configured_size // 2 + 1
        )
    if live and not quorum:
        yield ("cluster", f"wedged: live members ({', '.join(live)}) but no quorum")


def _reference_no_orphaned_devices(world):
    """Orphan check that asks ``master_of`` about every mastered device."""
    if world.scheduler.clock.now - world.last_disruption < world.settle_horizon:
        return
    cluster = world.cluster
    for dpid in sorted(d for d in cluster.mastership if cluster.master_of(d) is None):
        yield (f"dpid={dpid}", f"device {dpid} orphaned after failover settled")


def _reference_echo_liveness(world):
    """Echo check that tests every pending echo against the deadline."""
    now = world.scheduler.clock.now
    deadline = world.echo_deadline
    for dpid, device in world.devices.items():
        overdue = [
            seq for seq, sent in device.pending_echoes.items() if now - sent > deadline
        ]
        if overdue:
            yield (
                f"dpid={dpid}",
                f"{len(overdue)} echo(es) unanswered past {deadline:.0f}s "
                f"(seq {min(overdue)}..{max(overdue)})",
            )


_REFERENCE_CHECKS = {
    "mastership-uniqueness": _reference_mastership_uniqueness,
    "quorum-safety": _reference_quorum_safety,
    "no-orphaned-devices": _reference_no_orphaned_devices,
    "echo-liveness": _reference_echo_liveness,
}


def _reference_invariants():
    return [
        dataclasses.replace(invariant, check=_REFERENCE_CHECKS[invariant.name])
        if invariant.name in _REFERENCE_CHECKS
        else invariant
        for invariant in default_invariants()
    ]


@dataclasses.dataclass
class _ReferenceMonitorSet(MonitorSet):
    """The tick that rebuilds one active set of ``(invariant, subject)``
    keys and sorts it for every invariant."""

    invariants: list = dataclasses.field(default_factory=_reference_invariants)
    _active: set = dataclasses.field(default_factory=set)

    def run(self, world):
        fresh = []
        now = world.scheduler.clock.now
        for invariant in self.invariants:
            current = {
                (invariant.name, subject): detail
                for subject, detail in invariant.check(world)
            }
            cleared = sorted(
                key
                for key in self._active
                if key[0] == invariant.name and key not in current
            )
            for name, subject in cleared:
                self.transitions.append((now, name, subject, "fall"))
            self._active = {
                key
                for key in self._active
                if key[0] != invariant.name or key in current
            }
            for (name, subject), detail in sorted(current.items()):
                if (name, subject) in self._active:
                    continue
                self._active.add((name, subject))
                self.transitions.append((now, name, subject, "rise"))
                violation = InvariantViolation(
                    time=now,
                    invariant=name,
                    subject=subject,
                    detail=detail,
                    symptom=invariant.symptom,
                    byzantine_mode=invariant.byzantine_mode,
                )
                fresh.append(violation)
                self.violations.append(violation)
                if self.ledger is not None:
                    self.ledger.record(
                        ResilienceEvent.VIOLATION,
                        component=subject,
                        time=now,
                        detail=f"{name}: {detail}",
                        trigger=Trigger.NETWORK_EVENTS,
                        symptom=invariant.symptom,
                    )
        return fresh


def _monitored(schedule, monkeypatch, *, reference, **kwargs):
    """Replay ``schedule`` with a ledger; the monitors' transitions and
    violations and the ledger's records, from the current tick or (with
    ``reference``) the oracle's."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr("repro.adversary.world.MonitorSet", _ReferenceMonitorSet)
        ledger = ResilienceLedger()
        result = run_adversary(schedule, ledger=ledger, **kwargs)
    monitors = result.world.monitors
    assert isinstance(monitors, _ReferenceMonitorSet) is reference
    return monitors.transitions, monitors.violations, ledger.to_dicts()


class TestMonitorTick:
    @pytest.mark.parametrize("hardened", [False, True])
    @pytest.mark.parametrize("kind", ["ring", "star", "fattree"])
    def test_matches_the_rebuild_every_tick_oracle(self, kind, hardened, monkeypatch):
        topology = build_topology(kind, controllers=5, switches=8, seed=1)
        shape = dict(
            hardened=hardened, nodes=topology.nodes, dpids=topology.dpids,
            flows=topology.flows, horizon=30.0, echo_interval=6.0,
            check_interval=1.5,
        )
        edges = set()
        for seed in range(10):
            rng = random.Random(f"monitor-tick:{kind}:{seed}")
            schedule = seed_schedule(rng, topology, horizon=30.0, events=8)
            ours = _monitored(schedule, monkeypatch, reference=False, **shape)
            oracle = _monitored(schedule, monkeypatch, reference=True, **shape)
            assert ours == oracle, f"{kind} hardened={hardened} seed {seed}"
            edges |= {direction for _, _, _, direction in ours[0]}
        if not hardened:
            assert edges == {"rise", "fall"}

    def test_repeated_subject_keeps_its_last_detail(self, monkeypatch):
        """flow-convergence yields ``dpid=1`` once per unconverged flow; the
        violation carries the last flow's detail, as the oracle's does."""
        schedule = FaultSchedule()
        schedule.add(1.0, "dev:1", FaultAction.DROP, 50)
        shape = dict(horizon=40.0, check_interval=20.0)
        ours = _monitored(schedule, monkeypatch, reference=False, **shape)
        oracle = _monitored(schedule, monkeypatch, reference=True, **shape)
        assert ours == oracle
        (violation,) = [v for v in ours[1] if v.invariant == "flow-convergence"]
        assert (violation.time, violation.subject) == (20.0, "dpid=1")
        assert "issued at t=10.0" in violation.detail


def _every_action_schedule(topology, horizon):
    """Every :class:`FaultAction` once, ending with a reorder still holding
    the last echo reply of ``dev:<last dpid>`` and a kill whose failover
    is still pending when a run to ``horizon`` stops."""
    a, b, c, d = topology.nodes[:4]
    first, second, last = topology.dpids[0], topology.dpids[1], topology.dpids[-1]
    schedule = FaultSchedule()
    schedule.add(2.0, f"node:{a}", FaultAction.DROP, 2)
    schedule.add(3.0, f"dev:{first}", FaultAction.DUPLICATE, 2)
    schedule.add(4.0, f"node:{b}", FaultAction.DELAY, 3.0)
    schedule.add(5.0, f"node:{c}", FaultAction.CORRUPT, 3)
    schedule.add(6.0, f"dev:{second}", FaultAction.CORRUPT, 2)
    schedule.add(8.0, topology.partition_specs[0], FaultAction.PARTITION)
    schedule.add(12.0, b, FaultAction.CLOCK_SKEW, 2.0)
    schedule.add(15.0, "", FaultAction.HEAL)
    schedule.add(horizon - 4.5, f"dev:{last}", FaultAction.REORDER, 1)
    schedule.add(horizon - 0.5, d, FaultAction.KILL)
    return schedule


class TestNoGarbage:
    """A replay leaves no reference cycle, so reference counting frees all
    of it, and every replay puts the collector back as it found it."""

    @pytest.mark.parametrize("hardened", [False, True], ids=["bare", "hardened"])
    @pytest.mark.parametrize("kind", ["ring", "star", "fattree"])
    def test_a_replay_leaves_nothing_for_the_collector(
        self, kind, hardened, collector_state
    ):
        topology = build_topology(kind, controllers=5, switches=8, seed=1)
        shape = dict(nodes=topology.nodes, dpids=topology.dpids, hardened=hardened)
        gc.disable()
        gc.collect()
        # Straight through the world, so events are still pending at the
        # horizon: the held reply's flush and the kill's failover.
        horizon = 29.0
        world = AdversaryWorld(ledger=ResilienceLedger(), **shape)
        world.load_schedule(_every_action_schedule(topology, horizon))
        world.run(horizon=horizon, check_interval=1.0)
        # The reorder rule still holds its message: neither released by a
        # successor nor flushed.
        assert world.dev_channels[topology.dpids[-1]]._held is not None
        assert not world.cluster.instances[topology.nodes[3]].is_alive
        assert world.scheduler.pending == 0
        del world
        rng = random.Random(f"no-garbage:{kind}:{hardened}")
        for _ in range(5):
            schedule = seed_schedule(rng, topology, horizon=30.0, events=10)
            result = run_adversary(
                schedule, ledger=ResilienceLedger(), horizon=30.0,
                flows=topology.flows, echo_interval=6.0, check_interval=1.5,
                **shape,
            )
            assert result.world.scheduler.pending == 0
        del result
        assert gc.collect() == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(self, enabled, collector_state):
        seen: list[bool] = []
        probe = Invariant(
            "probe", Symptom.BYZANTINE, None,
            lambda world: seen.append(gc.isenabled()) or (),
        )
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        run_adversary(schedule, horizon=30.0, invariants=[probe])
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        skewed = FaultSchedule()
        skewed.add(5.0, "nobody", FaultAction.CLOCK_SKEW, 1.0)
        with pytest.raises(ReproError, match="unknown node 'nobody'"):
            run_adversary(skewed, horizon=30.0)
        assert gc.isenabled() is enabled

    def test_pool_task_pauses_the_collector_itself(
        self, monkeypatch, collector_state
    ):
        from repro.fuzzing import FuzzConfig
        from repro.fuzzing.campaign import _execute_task

        # A worker started without fork begins with the collector on.
        seen: list[bool] = []
        monkeypatch.setattr(
            AdversaryWorld, "run", lambda world, **_: seen.append(gc.isenabled())
        )
        config = FuzzConfig(controllers=3, switches=4, horizon=20.0)
        gc.enable()
        sample = _execute_task((config, config.build_topology(), FaultSchedule()))
        assert seen == [False]
        assert not sample.violated
        assert gc.isenabled()


class TestMinimizer:
    def test_acceptance_demo(self):
        """ISSUE acceptance: a seeded schedule of >=20 events violates an
        invariant and ddmin shrinks it to <=5 events reproducing the same
        violation under deterministic replay."""
        seed, schedule, result = find_violating_schedule(0, events=20)
        assert len(schedule) >= 20
        assert result.violated
        minimized = minimize_schedule(schedule)
        assert len(minimized.minimized) <= 5
        assert minimized.reduction > 0.5
        replay = run_adversary(minimized.minimized)
        assert replay.violated
        assert any(
            v.invariant == minimized.target for v in replay.violations
        )
        # probes counts every subset ddmin asked about, replays only the
        # ones actually executed; they can only differ by memo hits.
        assert minimized.replays <= minimized.probes

    def test_memoization_skips_revisited_subsets(self):
        """A two-culprit predicate forces ddmin through complement passes
        and granularity resets that revisit identical index-subsets; the
        memo answers those without re-running the replay."""
        schedule = random_schedule(4, events=20)
        culprits = (schedule.events[3], schedule.events[17])
        replay_calls: list[int] = []

        def replay(subset):
            replay_calls.append(1)
            return subset

        def predicate(subset) -> bool:
            return all(c in subset.events for c in culprits)

        minimized = minimize_schedule(
            schedule, replay=replay, predicate=predicate
        )
        assert len(minimized.minimized) <= 4
        assert all(c in minimized.minimized.events for c in culprits)
        assert minimized.replays == len(replay_calls)
        assert minimized.replays < minimized.probes, (
            "memoization never fired on a revisiting ddmin run"
        )

    def test_memoization_never_changes_the_answer(self):
        """The memo is a pure cache: probe accounting aside, the minimized
        schedule equals what a replay-every-probe ddmin produces."""
        _seed, schedule, _result = find_violating_schedule(0, events=20)
        first = minimize_schedule(schedule)
        second = minimize_schedule(schedule)
        assert first.minimized == second.minimized
        assert first.replays == second.replays
        assert first.probes == second.probes

    def test_minimized_is_one_minimal(self):
        """1-minimality: removing any single event loses the violation."""
        _seed, schedule, _result = find_violating_schedule(0, events=20)
        minimized = minimize_schedule(schedule)
        kept = minimized.minimized
        for drop in range(len(kept)):
            indices = [i for i in range(len(kept)) if i != drop]
            smaller = kept.subset(indices)
            replay = run_adversary(smaller)
            assert not any(
                v.invariant == minimized.target for v in replay.violations
            )

    def test_non_violating_schedule_rejected(self):
        schedule = FaultSchedule()
        schedule.add(1.0, "node:a", FaultAction.DELAY, 0.5)
        with pytest.raises(ReproError, match="does not violate"):
            minimize_schedule(schedule)

    def test_explicit_target_must_be_violated(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        with pytest.raises(ReproError, match="does not violate"):
            minimize_schedule(schedule, target="mastership-uniqueness")


class TestAdversarialAb:
    def test_hardened_violates_less(self):
        from repro.faultinjection import FaultCampaign

        report = FaultCampaign(seeds_per_fault=3).run_adversarial_ab(events=16)
        assert report.bare_violation_count > 0
        assert report.hardened_violation_count <= report.bare_violation_count
        summary = report.summary()
        assert summary["schedules"] == 3
        assert summary["hardened_retries"] > 0
        per_invariant = report.per_invariant()
        assert per_invariant
        for bare, hardened in per_invariant.values():
            assert bare >= 0 and hardened >= 0
