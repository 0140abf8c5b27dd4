"""The resilience runtime: policies, breaker, supervised restart, executor, A/B."""

from __future__ import annotations

import pytest

from repro.errors import BulkheadFullError, CircuitOpenError, ResilienceError
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.executor import map_isolated
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import Bulkhead, ResilienceConfig, RetryPolicy
from repro.resilience.supervisor import SupervisedRestart
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.observers import Outcome
from repro.taxonomy import BugType, ByzantineMode, Symptom, Trigger


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0)
        assert policy.delays() == [1.0, 2.0, 4.0, 8.0]

    def test_max_delay_caps_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=3.0, max_delay=5.0
        )
        assert max(policy.delays()) == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.2)
        b = RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.2)
        assert a.delays() == b.delays()
        for attempt in range(1, 6):
            base = min(10.0 * 2.0 ** (attempt - 1), 30.0)
            assert base * 0.8 <= a.delay_for(attempt) <= base * 1.2
        # The jitter does move the schedule off its exact backoff.
        plain = RetryPolicy(max_attempts=5, base_delay=10.0)
        assert a.delays() != plain.delays()

    def test_jitter_is_call_order_independent(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.3)
        reversed_order = [policy.delay_for(i) for i in (3, 2, 1)][::-1]
        assert reversed_order == policy.delays()

    def test_hardening_profile_is_pinned(self):
        # The schedules every hardened scenario retries and restarts on;
        # `repro resilience` and `chaos --resilient` print what they cost.
        assert ResilienceConfig.retry.delays() == [
            0.9268728488224802, 2.1824137087557, 3.790371701673513,
        ]
        assert ResilienceConfig.restart_backoff.delays() == [2.0, 4.0]

    def test_zero_attempts_disables_retrying(self):
        assert RetryPolicy(max_attempts=0).delays() == []

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay=10.0, max_delay=1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy().delay_for(0)


class TestBulkhead:
    def test_caps_concurrency(self):
        bulkhead = Bulkhead(2, name="workers")
        bulkhead.acquire()
        bulkhead.acquire()
        with pytest.raises(BulkheadFullError, match="workers"):
            bulkhead.acquire()
        assert bulkhead.rejected == 1
        assert bulkhead.peak_in_use == 2
        bulkhead.release()
        bulkhead.acquire()  # capacity freed

    def test_context_manager(self):
        bulkhead = Bulkhead(1)
        with bulkhead:
            assert bulkhead.in_use == 1
        assert bulkhead.in_use == 0

    def test_release_when_empty_rejected(self):
        with pytest.raises(ResilienceError):
            Bulkhead(1).release()

    def test_available_tracks_in_use(self):
        bulkhead = Bulkhead(3)
        assert bulkhead.available == 3
        bulkhead.acquire()
        bulkhead.acquire()
        assert bulkhead.available == 1
        bulkhead.release()
        assert bulkhead.available == 2


class TestCircuitBreaker:
    def make(self, ledger=None, **kwargs):
        scheduler = EventScheduler()
        defaults = dict(
            failure_threshold=0.5, window=4, min_calls=2, cooldown=10.0
        )
        defaults.update(kwargs)
        return scheduler, CircuitBreaker(scheduler, ledger=ledger, **defaults)

    def test_trips_on_failure_rate(self):
        ledger = ResilienceLedger()
        scheduler, breaker = self.make(ledger)
        breaker.record_failure()  # below min_calls: stays closed
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(
            trigger=Trigger.EXTERNAL_CALLS, symptom=Symptom.ERROR_MESSAGE
        )
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        [opened] = ledger.by_event(ResilienceEvent.BREAKER_OPEN)
        assert opened.trigger is Trigger.EXTERNAL_CALLS
        assert opened.delay == 10.0

    def test_successes_keep_rate_below_threshold(self):
        _, breaker = self.make()
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # 1/4 failures < 0.5
        assert breaker.state is BreakerState.CLOSED

    def test_failure_rate_covers_only_the_window(self):
        _, breaker = self.make()
        assert breaker.failure_rate == 0.0
        for _ in range(4):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.failure_rate == pytest.approx(0.25)
        for _ in range(4):
            breaker.record_success()
        # The failure has slid out of the four-call window.
        assert breaker.failure_rate == 0.0
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_closes_on_success(self):
        ledger = ResilienceLedger()
        scheduler, breaker = self.make(ledger)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        scheduler.run(until=15.0)  # cool-down elapses on the sim clock
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert ledger.count(ResilienceEvent.BREAKER_HALF_OPEN) == 1
        assert ledger.count(ResilienceEvent.BREAKER_CLOSE) == 1

    def test_half_open_probe_failure_reopens(self):
        scheduler, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        scheduler.run(until=15.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_call_wrapper_sheds_while_open(self):
        scheduler, breaker = self.make()
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("down")))
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")
        assert breaker.shed_calls == 1
        assert breaker.call.__doc__  # wrapper stays documented

    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0.0}, {"failure_threshold": 1.5},
        {"window": 0}, {"min_calls": 0}, {"min_calls": 10, "window": 5},
        {"cooldown": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ResilienceError):
            CircuitBreaker(EventScheduler(), **kwargs)


class TestHalfOpenConcurrentProbes:
    """Half-open recovery raced by several workers at once, with a
    bulkhead in front of the backend — the interaction the serving
    daemon relies on.  All concurrency is modelled as interleaved
    events on the simulation clock, so every run is deterministic."""

    def make(self):
        scheduler = EventScheduler()
        ledger = ResilienceLedger()
        breaker = CircuitBreaker(
            scheduler,
            name="backend",
            failure_threshold=0.5,
            window=4,
            min_calls=2,
            cooldown=10.0,
            ledger=ledger,
        )
        bulkhead = Bulkhead(2, name="backend")
        return scheduler, breaker, bulkhead, ledger

    def trip(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def start_probe(self, breaker, bulkhead):
        """One worker's probe attempt: breaker gate, then bulkhead gate.

        Returns a finish callback when the probe is admitted, None when
        it was turned away by either guard.
        """
        if not breaker.allow():
            return None
        try:
            bulkhead.acquire()
        except BulkheadFullError:
            return None
        breaker.begin_probe()

        def finish(ok):
            bulkhead.release()
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure()

        return finish

    def test_probe_quota_caps_concurrent_probes(self):
        scheduler, breaker, bulkhead, _ = self.make()
        self.trip(breaker)
        outcomes = {}

        def worker(name, duration, ok):
            finish = self.start_probe(breaker, bulkhead)
            if finish is None:
                outcomes[name] = "rejected"
                return
            outcomes[name] = "probing"
            scheduler.schedule(duration, lambda: finish(ok))

        # Cool-down ends at t=10; three workers race to probe at t=11.
        scheduler.schedule_at(11.0, lambda: worker("a", 2.0, True))
        scheduler.schedule_at(11.0, lambda: worker("b", 2.0, True))
        scheduler.schedule_at(11.0, lambda: worker("c", 2.0, True))
        scheduler.run(until=11.5)
        # Only the probe quota got through; the others were shed by the
        # breaker itself, not the bulkhead, which had a slot left.
        assert outcomes == {"a": "probing", "b": "rejected", "c": "rejected"}
        assert breaker.probes_inflight == 1
        assert bulkhead.in_use == 1
        scheduler.run(until=20.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.probes_inflight == 0
        assert bulkhead.in_use == 0

    def test_first_probe_failure_reopens_while_peer_inflight(self):
        scheduler, breaker, bulkhead, ledger = self.make()
        self.trip(breaker)
        finishes = []

        def launch():
            finish = self.start_probe(breaker, bulkhead)
            assert finish is not None
            finishes.append(finish)

        scheduler.schedule_at(11.0, launch)
        # The probe fails at t=12 -> the breaker reopens immediately.
        scheduler.schedule_at(12.0, lambda: finishes[0](False))
        # A peer admitted with it straggles in successfully at t=13, the
        # way the daemon records each member of a half-open batch —
        # too late to close.
        scheduler.schedule_at(13.0, breaker.record_success)
        scheduler.run(until=14.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert bulkhead.in_use == 0
        # The straggler's success must not have closed the breaker; the
        # next recovery attempt is a fresh cool-down cycle.
        scheduler.run(until=21.5)
        assert breaker.state is BreakerState.OPEN
        scheduler.run(until=22.5)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_slots_recycle_within_half_open(self):
        scheduler, breaker, bulkhead, _ = self.make()
        self.trip(breaker)
        scheduler.run(until=11.0)
        assert breaker.state is BreakerState.HALF_OPEN
        # First probe occupies the single slot...
        first = self.start_probe(breaker, bulkhead)
        assert first is not None
        assert self.start_probe(breaker, bulkhead) is None
        # ...fails, reopening; after another cool-down the slot is free
        # again for the next probe, which succeeds and closes.
        first(False)
        assert breaker.state is BreakerState.OPEN
        scheduler.run(until=25.0)
        assert breaker.state is BreakerState.HALF_OPEN
        second = self.start_probe(breaker, bulkhead)
        assert second is not None
        second(True)
        assert breaker.state is BreakerState.CLOSED
        assert bulkhead.in_use == 0

    def test_closed_state_calls_are_not_probes(self):
        _, breaker, bulkhead, _ = self.make()
        finish = self.start_probe(breaker, bulkhead)
        assert finish is not None
        assert breaker.probes_inflight == 0  # begin_probe no-ops closed
        finish(True)
        assert breaker.state is BreakerState.CLOSED


class TestSupervisedRestart:
    def test_detects_crashes_and_stalls_only(self):
        assert SupervisedRestart.detects(Outcome(symptom=Symptom.FAIL_STOP))
        assert SupervisedRestart.detects(
            Outcome(
                symptom=Symptom.BYZANTINE, byzantine_mode=ByzantineMode.STALL
            )
        )
        assert not SupervisedRestart.detects(
            Outcome(
                symptom=Symptom.BYZANTINE,
                byzantine_mode=ByzantineMode.INCORRECT_BEHAVIOR,
            )
        )
        assert not SupervisedRestart.detects(Outcome(symptom=Symptom.PERFORMANCE))

    def test_nondeterministic_crash_recovers(self):
        ledger = ResilienceLedger()
        harness = SupervisedRestart(
            backoff=RetryPolicy(max_attempts=2, base_delay=2.0), ledger=ledger
        )

        def execute(seed: int) -> Outcome:
            # Crashes for the original timing only.
            if seed == 0:
                return Outcome(symptom=Symptom.FAIL_STOP, detail="raced")
            return Outcome(symptom=None, detail="healthy")

        run = harness.run(execute, 0, trigger=Trigger.NETWORK_EVENTS)
        assert run.detected and run.recovered
        assert run.restarts == 1
        assert run.recovery_latency == 2.0
        assert ledger.count(ResilienceEvent.RESTART) == 1
        assert ledger.count(ResilienceEvent.GIVE_UP) == 0

    def test_deterministic_crash_exhausts_budget(self):
        ledger = ResilienceLedger()
        harness = SupervisedRestart(
            backoff=RetryPolicy(max_attempts=2, base_delay=2.0, multiplier=2.0),
            ledger=ledger,
        )
        execute = lambda seed: Outcome(  # noqa: E731
            symptom=Symptom.FAIL_STOP, detail="same crash every time"
        )
        run = harness.run(execute, 0)
        assert run.detected and not run.recovered
        assert run.restarts == 2
        assert run.recovery_latency == 6.0  # 2 + 4
        assert ledger.count(ResilienceEvent.GIVE_UP) == 1

    def test_undetectable_outcome_untouched(self):
        harness = SupervisedRestart()
        run = harness.run(
            lambda seed: Outcome(symptom=Symptom.PERFORMANCE), 0
        )
        assert not run.detected and not run.recovered
        assert run.restarts == 0


class TestMapIsolated:
    def test_partial_results_degrade_gracefully(self):
        def shaky(item: int) -> int:
            if item == 2:
                raise ValueError("bad item")
            return item * 10

        report = map_isolated(shaky, [0, 1, 2, 3])
        assert report.degraded
        assert report.results == {0: 0, 1: 10, 3: 30}
        assert report.total == 4
        [failure] = report.failures
        assert failure.index == 2
        assert "ValueError" in failure.error

    def test_empty_input(self):
        report = map_isolated(lambda item: item, [])
        assert not report.degraded
        assert report.total == 0


class TestLedger:
    def test_accounting(self):
        ledger = ResilienceLedger()
        ledger.record(
            ResilienceEvent.RETRY,
            "tsdb",
            time=1.0,
            trigger=Trigger.EXTERNAL_CALLS,
            symptom=Symptom.ERROR_MESSAGE,
            attempt=1,
            delay=2.0,
        )
        ledger.record(
            ResilienceEvent.RESTART,
            "controller",
            time=3.0,
            trigger=Trigger.NETWORK_EVENTS,
            symptom=Symptom.FAIL_STOP,
            delay=4.0,
        )
        assert len(ledger) == 2
        assert ledger.count(ResilienceEvent.RETRY) == 1
        assert ledger.recovery_cost() == 6.0
        assert "retry=1" in ledger.summary()
        assert "6.0s" in ledger.summary()

    def test_serialization_round_trip(self):
        """JSON round-trip preserves every record field and the totals the
        A/B reports are priced from."""
        ledger = ResilienceLedger()
        ledger.record(
            ResilienceEvent.RETRY,
            "tsdb",
            time=1.5,
            detail="timeout on write",
            trigger=Trigger.EXTERNAL_CALLS,
            symptom=Symptom.ERROR_MESSAGE,
            attempt=2,
            delay=0.75,
        )
        ledger.record(
            ResilienceEvent.VIOLATION,
            "cluster",
            time=9.0,
            detail="wedged: live members but no quorum",
            trigger=Trigger.NETWORK_EVENTS,
            symptom=Symptom.BYZANTINE,
        )
        ledger.record(ResilienceEvent.GIVE_UP, "controller", time=12.0, delay=3.25)

        restored = ResilienceLedger.from_json(ledger.to_json())
        assert restored.records == ledger.records
        assert restored.recovery_cost() == ledger.recovery_cost() == 4.0
        assert restored.summary() == ledger.summary()
        # None-valued trigger/symptom survive the trip (the GIVE_UP record).
        assert restored.records[2].trigger is None
        assert restored.records[2].symptom is None

    def test_serialization_empty_ledger(self):
        restored = ResilienceLedger.from_json(ResilienceLedger().to_json())
        assert len(restored) == 0
        assert restored.recovery_cost() == 0.0
        assert "0 actions" in restored.summary()


class TestGuardedScenario:
    def test_build_scenario_hardens_on_request(self):
        from repro.faultinjection.scenario import build_scenario, resilience_context

        ledger = ResilienceLedger()
        with resilience_context(ledger):
            scenario = build_scenario()
        assert scenario.guarded_tsdb is not None
        assert scenario.ledger is ledger
        # The raw backend stays reachable for fault perturbations.
        assert scenario.guarded_tsdb.backend is scenario.tsdb

    def test_resilience_context_is_ambient_and_restores(self):
        from repro.faultinjection.scenario import build_scenario, resilience_context

        with resilience_context(ResilienceLedger()):
            hardened = build_scenario()
        bare = build_scenario()
        assert hardened.guarded_tsdb is not None
        assert bare.guarded_tsdb is None

    def test_transient_outage_absorbed(self):
        """A short TSDB outage produces retries, not error logs (the
        external-tsdb-flaky symptom disappears under the guard)."""
        from repro.faultinjection.scenario import (
            build_scenario,
            resilience_context,
            run_workload,
        )

        with resilience_context(ResilienceLedger()):
            scenario = build_scenario()

        def outage(result) -> None:
            result.scheduler.schedule(
                4.0, lambda: setattr(result.tsdb, "available", False)
            )
            result.scheduler.schedule(
                7.0, lambda: setattr(result.tsdb, "available", True)
            )

        run_workload(scenario, extra_events=outage, seed=0)
        assert scenario.outcome().symptom is None
        assert scenario.guarded_tsdb.absorbed_failures > 0
        assert scenario.ledger.count(ResilienceEvent.RETRY) > 0
        assert scenario.runtime.errors == []

    def test_deterministic_type_error_propagates(self):
        from repro.sdnsim.services import (
            GuardedTimeSeriesDB,
            ServiceTypeError,
            TimeSeriesDB,
        )

        scheduler = EventScheduler()
        guarded = GuardedTimeSeriesDB(TimeSeriesDB(api_version=2), scheduler)
        with pytest.raises(ServiceTypeError):
            guarded.write("stats", {"pkts": "not-a-number"}, timestamp=0.0)

    def test_permanent_outage_drops_after_budget(self):
        from repro.sdnsim.services import GuardedTimeSeriesDB, TimeSeriesDB

        scheduler = EventScheduler()
        ledger = ResilienceLedger()
        backend = TimeSeriesDB(available=False)
        guarded = GuardedTimeSeriesDB(
            backend,
            scheduler,
            retry=RetryPolicy(max_attempts=2, base_delay=1.0),
            ledger=ledger,
        )
        guarded.write("stats", {"pkts": 1}, timestamp=0.0)  # no raise
        scheduler.run(until=60.0)
        assert guarded.dropped_writes == 1
        assert guarded.pending_retries == 0
        assert backend.count() == 0
        assert ledger.count(ResilienceEvent.DEGRADATION) == 1

    def test_breaker_sheds_writes_while_open(self):
        from repro.sdnsim.services import GuardedTimeSeriesDB, TimeSeriesDB

        scheduler = EventScheduler()
        backend = TimeSeriesDB(available=False)
        breaker = CircuitBreaker(
            scheduler, window=4, min_calls=2, cooldown=100.0
        )
        guarded = GuardedTimeSeriesDB(backend, scheduler, breaker=breaker)
        guarded.write("stats", {"pkts": 1}, timestamp=0.0)
        guarded.write("stats", {"pkts": 2}, timestamp=1.0)
        assert breaker.state is BreakerState.OPEN
        guarded.write("stats", {"pkts": 3}, timestamp=2.0)
        assert guarded.shed_writes >= 1


class TestAbCampaign:
    """The acceptance criterion: hardening helps exactly where §VII says."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.faultinjection import FaultCampaign

        return FaultCampaign(seeds_per_fault=3).run_ab()

    def test_symptom_rate_measurably_reduced(self, report):
        assert report.baseline_symptom_rate > report.hardened_symptom_rate
        assert report.symptom_reduction > 0

    def test_improvements_are_nondeterministic_only(self, report):
        improved = report.improved_results()
        assert improved, "hardening should absorb at least one fault"
        for result in improved:
            assert result.spec.bug_type is BugType.NON_DETERMINISTIC

    def test_deterministic_faults_resist_restart(self, report):
        for result in report.results:
            if result.spec.bug_type is BugType.DETERMINISTIC:
                assert (
                    result.hardened_symptom_rate == result.baseline_symptom_rate
                ), result.spec.fault_id

    def test_flaky_tsdb_fully_absorbed(self, report):
        result = report.result_for("external-tsdb-flaky")
        assert result.hardened_symptom_rate == 0.0

    def test_startup_race_recovered_by_restart(self, report):
        result = report.result_for("network-startup-race")
        assert result.baseline_symptom_rate > 0
        assert result.hardened_symptom_rate == 0.0
        assert result.restarts > 0
        assert result.recovery_latency > 0

    def test_ledger_priced_the_recovery(self, report):
        assert report.ledger.count(ResilienceEvent.RESTART) > 0
        assert report.ledger.count(ResilienceEvent.GIVE_UP) > 0
        assert report.mean_recovery_latency > 0
        assert report.ledger.recovery_cost() > 0

    def test_residual_breakdown_and_summary(self, report):
        breakdown = report.residual_by_root_cause()
        assert breakdown
        summary = report.summary()
        assert summary["faults"] == len(report)
        assert "external-tsdb-flaky" in summary["improved_faults"]
        with pytest.raises(KeyError):
            report.result_for("no-such-fault")


class TestSupervisedRestartStrategy:
    def test_capability_profile(self):
        from repro.faultinjection.faults import catalog_by_id
        from repro.frameworks import SupervisedRestartStrategy

        catalog = catalog_by_id()
        strategy = SupervisedRestartStrategy()
        # Deterministic crash: detected, budget spent, not recovered.
        crash = strategy.attempt(catalog["config-missing-multicast"], seed=0)
        assert crash.detected and not crash.recovered
        # Transient external failure: absorbed below the supervisor.
        absorbed = strategy.attempt(catalog["external-tsdb-flaky"], seed=2)
        assert absorbed.detected and absorbed.recovered
        assert "absorbed" in absorbed.detail
        # Non-deterministic startup race: restart wins.
        race = strategy.attempt(catalog["network-startup-race"], seed=0)
        assert race.detected and race.recovered


class TestResilientValidation:
    def test_validation_survives_a_poisoned_dimension(self):
        from repro.corpus import CorpusGenerator
        from repro.pipeline.validation import validate_dimensions_resilient

        dataset = CorpusGenerator(seed=2020).generate().manual_sample
        reports, execution = validate_dimensions_resilient(
            dataset, dimensions=("bug_type", "no_such_dimension")
        )
        assert execution.degraded
        assert set(reports) == {"bug_type"}
        assert reports["bug_type"].accuracy > 0.5
        [failure] = execution.failures
        assert failure.item == "no_such_dimension"
