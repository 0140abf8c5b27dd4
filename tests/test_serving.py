"""The overload-robust serving daemon: admission, deadlines, degradation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ServingError
from repro.recovery.checkpoint import RecoveryError, digest_config
from repro.recovery.journal import replay_journal
from repro.resilience.breaker import BreakerState
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.sdnsim.clock import EventScheduler
from repro.serving import (
    AdmissionController,
    HeuristicClassifier,
    Request,
    RequestClass,
    RequestFactory,
    RequestKind,
    RequestLog,
    ResponseStatus,
    ServiceTier,
    ServingDaemon,
    StubBackend,
    TrafficConfig,
    fingerprint,
    generate_trace,
    goodput,
    percentile,
    recover,
    replay,
)
from repro.serving.daemon import (
    BATCH_CAPACITY,
    BATCH_SLOTS,
    BREAKER_WINDOW,
    INTERACTIVE_CAPACITY,
    INTERACTIVE_SLOTS,
    QUEUE_DEPTH,
)


def make_daemon(
    *,
    hardened: bool = True,
    backend: StubBackend | None = None,
    request_log: RequestLog | None = None,
):
    scheduler = EventScheduler()
    ledger = ResilienceLedger()
    daemon = ServingDaemon(
        scheduler,
        backend or StubBackend(),
        hardened=hardened,
        ledger=ledger,
        request_log=request_log,
    )
    return daemon, scheduler, ledger


def with_budget(factory, kind, payload, *, arrival, budget):
    """The factory's next request, with ``budget`` instead of its kind's
    default."""
    request = factory.make(kind, payload, arrival=arrival)
    return dataclasses.replace(request, budget=budget)


class TestRequestModel:
    def test_deadline_is_arrival_plus_budget(self):
        req = with_budget(
            RequestFactory(), RequestKind.CLASSIFY, "text", arrival=3.0, budget=5.0
        )
        assert req.deadline == 8.0
        assert req.klass is RequestClass.INTERACTIVE

    def test_kind_class_split(self):
        factory = RequestFactory()
        lint = factory.make(RequestKind.LINT, "x = 1\n", arrival=0.0)
        assert lint.klass is RequestClass.BATCH

    def test_arrival_must_not_be_negative(self):
        with pytest.raises(ServingError):
            Request(req_id=0, kind=RequestKind.QUERY, payload="symptoms",
                    arrival=-1.0, budget=4.0)

    def test_budget_must_be_positive(self):
        with pytest.raises(ServingError):
            Request(req_id=0, kind=RequestKind.QUERY, payload="symptoms",
                    arrival=0.0, budget=0.0)

    def test_batch_cost_amortizes_overhead(self):
        cost = RequestKind.CLASSIFY.value  # noqa: F841 - readability anchor
        model = RequestFactory().make(
            RequestKind.CLASSIFY, "t", arrival=0.0
        ).cost()
        assert model.batch_cost(16) < 16 * model.solo_cost
        assert model.batch_cost(1) == model.solo_cost

    def test_payload_digest_stable_across_equivalent_payloads(self):
        factory = RequestFactory()
        a = factory.make(RequestKind.QUERY, {"b": 1, "a": 2}, arrival=0.0)
        b = factory.make(RequestKind.QUERY, {"a": 2, "b": 1}, arrival=0.0)
        assert a.payload_digest() == b.payload_digest()


class TestHeuristicClassifier:
    def test_keyword_votes(self):
        clf = HeuristicClassifier(["fail_stop", "performance", "fail_stop"])
        assert clf.classify("the controller crash caused an abort") == "fail_stop"
        assert clf.classify("latency and cpu load degraded") == "performance"

    def test_fallback_is_majority_label(self):
        clf = HeuristicClassifier(["byzantine", "byzantine", "fail_stop"])
        assert clf.classify("nothing matches here at all") == "byzantine"

    def test_rejects_empty_labels(self):
        with pytest.raises(ServingError):
            HeuristicClassifier([])


def admission(**kwargs):
    """An admission controller at the daemon's limits, overridden by
    ``kwargs``."""
    limits = {
        "max_depth": QUEUE_DEPTH,
        "interactive_capacity": INTERACTIVE_CAPACITY,
        "batch_capacity": BATCH_CAPACITY,
        "interactive_slots": INTERACTIVE_SLOTS,
        "batch_slots": BATCH_SLOTS,
        "ledger": ResilienceLedger(),
    }
    return AdmissionController(**{**limits, **kwargs})


class TestAdmission:
    def request(self, kind=RequestKind.CLASSIFY, arrival=0.0, budget=8.0):
        return with_budget(RequestFactory(), kind, "text", arrival=arrival, budget=budget)

    def test_admits_when_idle(self):
        ctl = admission()
        verdict = ctl.admit(self.request(), now=0.0, depth=0,
                            queued_cost=0.0, backlog=0.0)
        assert verdict.admitted

    def test_queue_full_sheds(self):
        ctl = admission(max_depth=2)
        verdict = ctl.admit(self.request(), now=0.0, depth=2,
                            queued_cost=0.0, backlog=0.0)
        assert not verdict.admitted and verdict.reason == "queue-full"
        assert verdict.retry_after >= 0.25

    def test_class_quota_sheds_without_leaking_slots(self):
        ctl = admission(batch_slots=1)
        first = self.request(RequestKind.MINIMIZE, budget=100.0)
        assert ctl.admit(first, now=0.0, depth=0, queued_cost=0.0,
                         backlog=0.0).admitted
        second = ctl.admit(self.request(RequestKind.MINIMIZE, budget=100.0),
                           now=0.0, depth=1, queued_cost=2.7, backlog=0.0)
        assert not second.admitted and second.reason == "class-quota"
        ctl.release(first)
        third = ctl.admit(self.request(RequestKind.MINIMIZE, budget=100.0),
                          now=0.0, depth=0, queued_cost=0.0, backlog=0.0)
        assert third.admitted

    def test_cost_capacity_sheds_and_releases_quota(self):
        ctl = admission(interactive_capacity=0.5)
        assert ctl.admit(self.request(), now=0.0, depth=0, queued_cost=0.0,
                         backlog=0.0).admitted
        verdict = ctl.admit(self.request(), now=0.0, depth=1,
                            queued_cost=0.3, backlog=0.0)
        assert not verdict.admitted and verdict.reason == "cost-capacity"
        # The rejected request's class slot was released: capacity-many
        # more admits still succeed.
        assert ctl.quotas[RequestClass.INTERACTIVE].in_use == 1

    def test_hopeless_deadline_sheds(self):
        ctl = admission()
        verdict = ctl.admit(self.request(budget=1.0), now=0.0, depth=0,
                            queued_cost=0.0, backlog=5.0)
        assert not verdict.admitted and verdict.reason == "hopeless-deadline"
        assert verdict.retry_after == pytest.approx(5.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0}, {"interactive_capacity": 0.0}, {"batch_capacity": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            admission(**kwargs)

    def test_every_shed_is_priced_in_the_ledger(self):
        ledger = ResilienceLedger()
        ctl = admission(max_depth=1, ledger=ledger)
        ctl.admit(self.request(), now=1.0, depth=1, queued_cost=0.0,
                  backlog=2.0)
        (record,) = ledger.by_event(ResilienceEvent.SHED)
        assert record.delay > 0
        assert record.time == 1.0


class TestDaemonBasics:
    def test_single_request_served_full(self):
        daemon, scheduler, _ = make_daemon()
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "crash", arrival=0.0))
        daemon.run(until=10.0)
        (response,) = daemon.responses
        assert response.status is ResponseStatus.OK
        assert response.tier is ServiceTier.FULL
        assert response.value == "classify:0"
        assert response.deadline_met
        assert response.latency > 0

    def test_micro_batches_are_kind_homogeneous(self):
        backend = StubBackend()
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        for kind in (RequestKind.CLASSIFY, RequestKind.QUERY,
                     RequestKind.CLASSIFY, RequestKind.QUERY):
            daemon.submit(factory.make(kind, "p", arrival=0.0))
        daemon.run(until=30.0)
        kinds = [kind for kind, _ids in backend.executed_batches]
        assert all(
            len({k for k in (kind,)}) == 1 for kind in kinds
        )
        # Same-kind requests batched together despite interleaved arrival.
        assert (RequestKind.CLASSIFY, (0, 2)) in backend.executed_batches
        assert (RequestKind.QUERY, (1, 3)) in backend.executed_batches

    def test_interactive_has_priority_over_batch(self):
        backend = StubBackend()
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        # Batch work arrives first, interactive second; executor is busy
        # with the first batch pick, then must choose interactive.
        daemon.submit(with_budget(factory, RequestKind.MINIMIZE, 1, arrival=0.0, budget=60.0))
        daemon.submit(with_budget(factory, RequestKind.MINIMIZE, 2, arrival=0.0, budget=60.0))
        scheduler.schedule_at(
            0.1, lambda: daemon.submit(
                factory.make(RequestKind.CLASSIFY, "crash", arrival=0.1))
        )
        daemon.run(until=60.0)
        order = [kind for kind, _ in backend.executed_batches]
        assert order[0] is RequestKind.MINIMIZE
        assert order[1] is RequestKind.CLASSIFY  # jumped the second minimize
        assert order[2] is RequestKind.MINIMIZE

    def test_expired_work_is_cancelled_not_computed(self):
        backend = StubBackend()
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        # A lint request is admitted while the pipe looks feasible, but
        # interactive waves keep jumping ahead of it (strict priority)
        # until its deadline passes.  Deadline propagation must cancel
        # it in the queue — the backend never computes the dead answer.
        daemon.submit(with_budget(factory, RequestKind.MINIMIZE, 1, arrival=0.0, budget=60.0))
        lint_id = []

        def submit_lint():
            request = with_budget(factory, RequestKind.LINT, "x = 1\n", arrival=0.05, budget=5.0)
            lint_id.append(request.req_id)
            daemon.submit(request)

        scheduler.schedule_at(0.05, submit_lint)

        def flood(at):
            def fire():
                for i in range(30):
                    daemon.submit(with_budget(factory, RequestKind.QUERY, f"q{i}",
                                              arrival=at, budget=4.0))
            scheduler.schedule_at(at, fire)

        for i in range(9):
            flood(2.6 + 0.3 * i)
        daemon.run(until=60.0)
        expired = [r for r in daemon.responses
                   if r.status is ResponseStatus.EXPIRED]
        assert len(expired) == 1
        assert expired[0].kind is RequestKind.LINT
        # The backend never saw the cancelled request.
        executed_ids = [i for _, ids in backend.executed_batches for i in ids]
        assert lint_id[0] not in executed_ids
        assert daemon.stats.expired == 1

    def test_shed_response_carries_retry_after(self):
        daemon, scheduler, _ = make_daemon()
        factory = RequestFactory()
        for i in range(100):
            daemon.submit(factory.make(RequestKind.CLASSIFY, f"t{i}", arrival=0.0))
        daemon.run(until=10.0)
        shed = [r for r in daemon.responses if r.status is ResponseStatus.SHED]
        assert shed
        assert all(r.retry_after and r.retry_after >= 0.25 for r in shed)

    def test_bare_daemon_has_no_guards(self):
        bare, _, _ = make_daemon(hardened=False)
        hardened, _, _ = make_daemon()
        assert bare.admission is None and bare.breaker is None
        assert hardened.admission.max_depth == QUEUE_DEPTH
        assert hardened.breaker.window == BREAKER_WINDOW

    def test_bare_mode_never_sheds_or_expires(self):
        daemon, scheduler, _ = make_daemon(hardened=False)
        factory = RequestFactory()
        for i in range(50):
            daemon.submit(with_budget(factory, RequestKind.CLASSIFY, f"t{i}",
                                      arrival=0.0, budget=0.5))
        daemon.run(until=120.0)
        statuses = {r.status for r in daemon.responses}
        assert ResponseStatus.SHED not in statuses
        assert ResponseStatus.EXPIRED not in statuses
        assert len(daemon.responses) == 50


class TestDegradation:
    def test_backend_failure_falls_back_to_heuristic(self):
        backend = StubBackend(fail_ids=[0])
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "crash", arrival=0.0))
        daemon.run(until=10.0)
        (response,) = daemon.responses
        assert response.status is ResponseStatus.DEGRADED
        assert response.tier is ServiceTier.HEURISTIC
        assert response.value == "heuristic:0"

    def test_bare_mode_backend_failure_is_an_error(self):
        backend = StubBackend(fail_ids=[0])
        daemon, scheduler, _ = make_daemon(hardened=False, backend=backend)
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "crash", arrival=0.0))
        daemon.run(until=10.0)
        (response,) = daemon.responses
        assert response.status is ResponseStatus.ERROR

    def test_degraded_batch_costs_its_fixed_price_per_request(self):
        backend = StubBackend(fail_ids=list(range(8)))
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        for _ in range(8):
            daemon.submit(factory.make(RequestKind.QUERY, "symptoms", arrival=0.0))
        scheduler.run(until=1.0)
        assert daemon.breaker.state is BreakerState.OPEN
        # The open breaker degrades the next batch, which holds the
        # executor for 0.02 + 0.01 simulated seconds per request.
        for _ in range(3):
            daemon.submit(factory.make(RequestKind.QUERY, "symptoms", arrival=1.0))
        scheduler.run(until=1.0 + 1e-9)
        assert daemon.stats.degraded_batches == 1
        assert daemon.backlog == pytest.approx(3 * (0.02 + 0.01))

    def test_poison_request_exhausts_every_tier(self):
        daemon, scheduler, _ = make_daemon()
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "boom", arrival=0.0,
                                   poison=True))
        daemon.run(until=10.0)
        (response,) = daemon.responses
        assert response.status is ResponseStatus.ERROR
        assert daemon.stats.errors == 1

    def test_breaker_opens_on_failure_streak_and_serves_degraded(self):
        backend = StubBackend(fail_ids=list(range(10)))
        daemon, scheduler, _ = make_daemon(backend=backend)
        factory = RequestFactory()
        # One batch of eight failures fills the breaker's window.
        for i in range(8):
            daemon.submit(factory.make(RequestKind.QUERY, "symptoms",
                                       arrival=0.0))
        # Arrives after the first batch's failures tripped the breaker,
        # and well inside its cool-down.
        scheduler.schedule_at(
            1.0, lambda: daemon.submit(
                factory.make(RequestKind.QUERY, "symptoms", arrival=1.0))
        )
        daemon.run(until=3.0)
        assert daemon.breaker.state is BreakerState.OPEN
        late = [r for r in daemon.responses if r.req_id == 8]
        assert late[0].status is ResponseStatus.DEGRADED
        assert daemon.stats.degraded_batches >= 1


class TestDelivery:
    def test_slow_client_aborted_when_hardened(self):
        daemon, scheduler, ledger = make_daemon()
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "t", arrival=0.0,
                                   client_hold=50.0))
        daemon.run(until=60.0)
        (response,) = daemon.responses
        assert response.status is ResponseStatus.OK
        assert daemon.stats.slow_clients_aborted == 1
        # The abort is priced as a GIVE_UP on the delivery component.
        gives = [r for r in ledger.by_event(ResilienceEvent.GIVE_UP)
                 if r.component == "delivery"]
        assert len(gives) == 1
        assert response.latency < 50.0

    def test_bare_mode_slow_client_pins_delivery_slot(self):
        daemon, scheduler, _ = make_daemon(hardened=False)
        factory = RequestFactory()
        # Four slow clients take all four delivery slots.
        for i in range(4):
            daemon.submit(factory.make(RequestKind.CLASSIFY, f"slow{i}",
                                       arrival=0.0, client_hold=30.0))
        daemon.submit(factory.make(RequestKind.CLASSIFY, "fast", arrival=0.0))
        daemon.run(until=120.0)
        fast = [r for r in daemon.responses if r.req_id == 4][0]
        # Head-of-line blocking: the fast client waited behind the slow ones.
        assert fast.latency > 30.0
        assert daemon.stats.slow_clients_aborted == 0


class TestTraffic:
    def test_same_seed_same_trace(self):
        config = TrafficConfig(seed=11, duration=15.0)
        first = generate_trace(config)
        second = generate_trace(config)
        assert [r.req_id for r in first.requests] == \
            [r.req_id for r in second.requests]
        assert [r.arrival for r in first.requests] == \
            [r.arrival for r in second.requests]
        assert [r.payload for r in first.requests] == \
            [r.payload for r in second.requests]

    def test_different_seeds_differ(self):
        a = generate_trace(TrafficConfig(seed=1, duration=15.0))
        b = generate_trace(TrafficConfig(seed=2, duration=15.0))
        assert [r.arrival for r in a.requests] != \
            [r.arrival for r in b.requests]

    def test_fault_injection_present(self):
        trace = generate_trace(TrafficConfig(
            seed=3, duration=30.0, slow_client_rate=0.1, poison_rate=0.1,
        ))
        assert trace.slow_clients > 0
        assert trace.poison > 0

    def test_bursts_raise_arrival_density(self):
        calm = generate_trace(TrafficConfig(seed=5, duration=30.0, bursts=0))
        bursty = generate_trace(TrafficConfig(seed=5, duration=30.0, bursts=3))
        assert len(bursty.requests) > len(calm.requests)

    @pytest.mark.parametrize("field, value", [
        ("duration", 0.0), ("base_rate", 0.0), ("burst_rate", -1.0),
        ("bursts", -1), ("slow_client_rate", 1.5), ("poison_rate", -0.1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ServingError):
            TrafficConfig(**{field: value})


class TestDeterminism:
    def test_full_replay_fingerprint_identical(self):
        config = TrafficConfig(seed=9, duration=12.0)

        def run_once():
            daemon, scheduler, _ = make_daemon()
            replay(generate_trace(config), daemon)
            daemon.run(until=60.0)
            return daemon

        first, second = run_once(), run_once()
        assert fingerprint(first.responses) == fingerprint(second.responses)
        assert first.stats.to_dict() == second.stats.to_dict()


class TestRequestJournal:
    def test_clean_run_leaves_no_inflight(self, tmp_path):
        path = tmp_path / "requests.journal"
        daemon, scheduler, _ = make_daemon(
            request_log=RequestLog(path, {})
        )
        factory = RequestFactory()
        for i in range(3):
            daemon.submit(factory.make(RequestKind.CLASSIFY, f"t{i}",
                                       arrival=0.0))
        daemon.run(until=30.0)
        daemon.close()
        state = recover(path)
        assert state["finished"] == [0, 1, 2]
        assert state["inflight"] == []

    def test_second_log_on_one_path_is_refused(self, tmp_path):
        path = tmp_path / "requests.journal"
        config = {"traffic": {"seed": 3}, "hardened": True, "settle": 120.0}
        RequestLog(path, config).close()
        before = path.read_bytes()
        with pytest.raises(RecoveryError, match="already exists"):
            RequestLog(path, config)
        assert path.read_bytes() == before
        start = replay_journal(path).run_config()
        assert start["config"] == digest_config(config)

    def test_second_smoke_into_one_workdir_exits_2(self, tmp_path, capsys):
        from repro.serving.smoke import main as smoke_main

        RequestLog(tmp_path / "requests.journal", {}).close()
        before = (tmp_path / "requests.journal").read_bytes()
        assert smoke_main(["--workdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro.serving.smoke: error: ")
        assert "already exists" in err and err.count("\n") == 1
        assert (tmp_path / "requests.journal").read_bytes() == before

    def test_crash_window_shows_inflight(self, tmp_path):
        path = tmp_path / "requests.journal"
        daemon, scheduler, _ = make_daemon(request_log=RequestLog(path, {}))
        factory = RequestFactory()
        daemon.submit(with_budget(factory, RequestKind.MINIMIZE, 1, arrival=0.0, budget=60.0))
        # "Crash" before the executor completes: stop the run early and
        # never close the log cleanly.
        daemon.run(until=0.5)
        state = recover(path)
        assert state["inflight"] == [0]
        assert state["finished"] == []

    def test_shed_requests_are_terminally_recorded(self, tmp_path):
        path = tmp_path / "requests.journal"
        daemon, scheduler, _ = make_daemon(request_log=RequestLog(path, {}))
        factory = RequestFactory()
        for i in range(100):
            daemon.submit(factory.make(RequestKind.CLASSIFY, f"t{i}",
                                       arrival=0.0))
        daemon.run(until=30.0)
        daemon.close()
        assert daemon.stats.shed > 0
        state = recover(path)
        assert state["inflight"] == []
        assert len(state["finished"]) == 100


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile([], 99.0) == 0.0

    def test_goodput_weights_degraded_answers_at_half(self):
        daemon, scheduler, _ = make_daemon(backend=StubBackend(fail_ids=[1]))
        factory = RequestFactory()
        daemon.submit(factory.make(RequestKind.CLASSIFY, "a", arrival=0.0))
        daemon.submit(factory.make(RequestKind.CLASSIFY, "b", arrival=0.0))
        daemon.run(until=20.0)
        # One OK (weight 1.0) + one DEGRADED (weight 0.5) over 10 seconds.
        assert goodput(daemon.responses, 10.0) == pytest.approx(0.15)
