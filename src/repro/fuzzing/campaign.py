"""The coverage-guided fault-schedule fuzzing campaign.

AFL's loop, retooled for control planes: *inputs* are
:class:`~repro.adversary.schedule.FaultSchedule`\\ s, the *program* is a
deterministic :func:`~repro.adversary.world.run_adversary` replay over a
parameterized :class:`~repro.fuzzing.topology.Topology`, and the *coverage
map* is the invariant-monitor token set from
:mod:`repro.fuzzing.coverage`.  Each generation:

1. pick parents from the corpus (entries that previously reached unseen
   coverage) and breed candidate mutants (:mod:`repro.fuzzing.mutate`);
2. optionally rank candidates with the repo's CART tree, trained on every
   ``(schedule features -> violated)`` observation so far — the learned
   failure-inducing model of Ollando et al. (PAPERS.md);
3. fan the batch out over a PR-3 :class:`~repro.parallel.executor.WorkPool`
   (each replay is an independent pure function — embarrassingly parallel);
4. fold results into the :class:`~repro.fuzzing.corpus.FuzzState`: keep
   schedules reaching unseen tokens, record distinct violation signatures,
   and ddmin-minimize a reproducer for every *new violation class*;
5. snapshot the state atomically and commit it to a PR-4
   :class:`~repro.recovery.journal.RunJournal` — a SIGKILLed campaign
   resumed with ``--resume`` replays only unfinished batches and reaches a
   bit-identical final state.

Determinism contract: batch ``k`` of a campaign seeded ``S`` draws from
``random.Random(f"fuzz:{S}:{k}")`` and nothing else — no wall clock, no
``hash()``, no shared RNG across batches — so resume-from-batch-``k`` and
run-through-batch-``k`` are the same computation.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.adversary.minimizer import minimize_schedule
from repro.adversary.schedule import FaultSchedule
from repro.adversary.world import AdversaryResult, run_adversary
from repro.errors import FuzzError
from repro.fuzzing.corpus import (
    CorpusEntry,
    FuzzState,
    Reproducer,
    load_state,
    save_state,
)
from repro.fuzzing.coverage import CoverageSample, run_coverage
from repro.fuzzing.features import schedule_features
from repro.fuzzing.mutate import mutate, random_event
from repro.fuzzing.topology import TOPOLOGY_KINDS, Topology, build_topology
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel.cache import atomic_write
from repro.parallel.executor import WorkPool
from repro.recovery.checkpoint import digest_config
from repro.recovery.fold import fold_batches
from repro.recovery.journal import JournalEvent

#: Minimum observations (with both outcomes present) before the tree votes.
_MIN_TRAIN = 8
#: ddmin budget per violation class; classes are few so this stays cheap.
_MINIMIZE_MAX_REPLAYS = 160
#: Relative slack within which an approximate distance may still hide the
#: exact comparison's answer, so ``_distance`` decides it.
_NEAR_TIE = 1e-9

#: ``(origin, parent entry id, schedule, schedule features)``.
Candidate = tuple[str, int | None, FaultSchedule, list[float]]


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that identifies one campaign (its resume identity)."""

    controllers: int = 5
    switches: int = 20
    flows: int | None = None
    topology: str = "ring"
    budget: int = 200
    batch: int = 20
    seed: int = 0
    horizon: float = 40.0
    events: int = 12
    hardened: bool = False
    guided: bool = True
    minimize: bool = True
    oversample: int = 3
    tree_depth: int = 4
    echo_interval: float = 8.0
    check_interval: float = 2.5

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_KINDS:
            raise FuzzError(
                f"unknown topology kind {self.topology!r} "
                f"(known: {', '.join(TOPOLOGY_KINDS)})"
            )
        for name in ("budget", "batch", "events", "oversample", "tree_depth"):
            if getattr(self, name) < 1:
                raise FuzzError(f"{name} must be >= 1")
        for name in ("horizon", "echo_interval", "check_interval"):
            if getattr(self, name) <= 0:
                raise FuzzError(f"{name} must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def digest(self) -> str:
        """Resume identity: same digest == same campaign."""
        return digest_config(self.to_dict())

    @property
    def n_batches(self) -> int:
        return -(-self.budget // self.batch)

    def build_topology(self) -> Topology:
        return build_topology(
            self.topology,
            controllers=self.controllers,
            switches=self.switches,
            flows=self.flows,
            seed=self.seed,
        )


def seed_schedule(
    rng: random.Random, topology: Topology, *, horizon: float, events: int
) -> FaultSchedule:
    """A fresh random schedule over the topology's fault vocabulary.

    Both the guided and the pure-random arm draw seeds from this exact
    generator, so the bench compares *search strategies*, not input
    distributions.
    """
    return FaultSchedule(
        [random_event(rng, topology, horizon) for _ in range(events)]
    )


def _replay(schedule: FaultSchedule, config: FuzzConfig, topology: Topology) -> AdversaryResult:
    return run_adversary(
        schedule,
        hardened=config.hardened,
        nodes=topology.nodes,
        dpids=topology.dpids,
        horizon=config.horizon,
        flows=topology.flows,
        echo_interval=config.echo_interval,
        check_interval=config.check_interval,
    )


def _execute_task(task: tuple[FuzzConfig, Topology, FaultSchedule]) -> CoverageSample:
    """Replay one schedule and abstract it — module-level so the process
    backend can pickle it with its task: the campaign's frozen config, its
    topology and the schedule itself."""
    config, topology, schedule = task
    # Bucket against the *configured* horizon (run_adversary may extend the
    # actual run past it): late violations simply share the last bucket, and
    # tokens stay comparable across schedules of different lengths.
    return run_coverage(_replay(schedule, config, topology), horizon=config.horizon)


def _select_novel(
    feats: list[list[float]],
    boring: list[bool],
    executed: list[list[float]],
    count: int,
) -> list[int]:
    """Greedy max-min novelty selection over the candidate pool.

    Each pick maximizes its distance to the nearest already-executed (or
    already-picked) feature vector; candidates the tree flagged as unlikely
    to violate have their novelty halved rather than being dropped — the
    tree biases, the coverage map decides.

    ``nearest[i]`` is candidate ``i``'s exact distance to that nearest
    vector, as ``_distance`` gives it; each pick lowers it where the pick
    is nearer.  With nothing executed every candidate starts at ``1e9``,
    which the first pick's distance replaces.

    numpy measures every candidate against every executed vector and
    against each pick, but only approximately: ``x ** 2`` and ``** 0.5``
    go through libm's ``pow``, which is not correctly rounded, so squaring
    by multiplying or ``np.sqrt`` can move a last bit that decides a pick.
    numpy therefore only prunes.  Wherever an approximate distance lies
    within a relative ``_NEAR_TIE`` of the value it competes with,
    ``_distance`` computes the exact one and decides, so the picks are
    those of recomputing every distance for every pick.
    """
    if not feats or count < 1:
        return []
    points = np.asarray(feats, dtype=float)
    halving = np.array([0.5 if flag else 1.0 for flag in boring])
    nearest = np.full(len(feats), 1e9)
    if executed:
        approx = _approx_distances(points, np.asarray(executed, dtype=float))
        bound = approx.min(axis=1, keepdims=True) * (1.0 + _NEAR_TIE)
        for i, close in enumerate(approx <= bound):
            nearest[i] = min(
                _distance(feats[i], executed[j]) for j in np.flatnonzero(close)
            )
    unmeasured = not executed
    pool = np.ones(len(feats), dtype=bool)
    chosen: list[int] = []
    for _ in range(min(count, len(feats))):
        # argmax takes the first maximum: the lowest remaining index.
        best = int(np.argmax(np.where(pool, nearest * halving, -np.inf)))
        pool[best] = False
        chosen.append(best)
        pick = feats[best]
        if unmeasured:
            closer = pool
        else:
            approx = _approx_distances(points, points[best : best + 1])[:, 0]
            closer = pool & (approx <= nearest * (1.0 + _NEAR_TIE))
        for i in np.flatnonzero(closer):
            near = _distance(feats[i], pick)
            if unmeasured or near < nearest[i]:
                nearest[i] = near
        unmeasured = False
    return chosen


def _approx_distances(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``points`` to every row of
    ``refs``, within a few ulps of ``_distance``: a sum of squared
    differences has no cancellation.  Summed one feature at a time, so no
    points x refs x features array is ever allocated."""
    total = np.zeros((len(points), len(refs)))
    for k in range(points.shape[1]):
        total += np.square(points[:, k, None] - refs[None, :, k])
    return np.sqrt(total)


def _distance(a: list[float], b: list[float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def _violation_class(signature: str) -> str:
    """``viol:<inv>:<kind>:<t>:<c>`` -> ``<inv>:<kind>``."""
    parts = signature.split(":")
    return f"{parts[1]}:{parts[2]}"


def _corpus_energy(entry: CorpusEntry) -> int:
    """AFL-style power-schedule weight: discovery earns breeding rights."""
    return min(len(entry.new_tokens), 8) + (4 if entry.violated else 0) + 1


def state_metrics(state: FuzzState):
    """Project a :class:`FuzzState` onto a ``MetricsRegistry``.

    Derived purely from the snapshot (never from in-flight batch
    bookkeeping), so a resumed campaign exports exactly the metrics an
    uninterrupted run would — the same property the state fingerprint
    guarantees.  Totals become counters, campaign levels become gauges,
    and per-entry discovery sizes become the ``fuzz_new_tokens_per_entry``
    histogram (coverage tokens minted per corpus entry).
    """
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "fuzz_schedules_total", "Schedules executed"
    ).inc(state.executed)
    registry.counter(
        "fuzz_violated_runs_total", "Schedules that violated an invariant"
    ).inc(state.violated_runs)
    registry.counter(
        "fuzz_batches_total", "Journaled batches committed"
    ).inc(state.batch_index + 1)
    registry.gauge(
        "fuzz_coverage_tokens", "Distinct monitor-state coverage tokens"
    ).set(len(state.coverage))
    registry.gauge(
        "fuzz_violation_signatures", "Distinct violation signatures"
    ).set(len(state.signatures))
    registry.gauge(
        "fuzz_corpus_entries", "Corpus entries holding unseen coverage"
    ).set(len(state.corpus))
    registry.gauge(
        "fuzz_corpus_energy",
        "Total power-schedule energy across the corpus",
    ).set(sum(_corpus_energy(entry) for entry in state.corpus))
    registry.gauge(
        "fuzz_reproducers", "Minimized reproducers, one per violation class"
    ).set(len(state.reproducers))
    tokens_hist = registry.histogram(
        "fuzz_new_tokens_per_entry",
        "Coverage tokens minted per corpus entry",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    )
    for entry in state.corpus:
        tokens_hist.observe(float(len(entry.new_tokens)))
    return registry


@dataclass
class FuzzReport:
    """What a finished (or resumed-to-finished) campaign produced."""

    config: FuzzConfig
    state: FuzzState
    run_dir: Path
    resumed: bool
    batches_executed: int
    #: ``state.fingerprint()``, as the last commit's digest.
    fingerprint: str

    @property
    def distinct_signatures(self) -> int:
        return len(self.state.signatures)

    def summary(self) -> str:
        return (
            f"{self.state.executed} schedules -> "
            f"{len(self.state.coverage)} coverage tokens, "
            f"{self.distinct_signatures} violation signatures, "
            f"{len(self.state.corpus)} corpus entries, "
            f"{len(self.state.reproducers)} minimized reproducers"
        )


class FuzzCampaign:
    """One journaled coverage-guided campaign rooted at ``run_dir``."""

    def __init__(
        self,
        config: FuzzConfig,
        run_dir: str | Path,
        *,
        jobs: int = 1,
        on_event: Callable[[JournalEvent], None] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.run_dir = Path(run_dir)
        self.jobs = jobs
        self._on_event = on_event
        self._progress = progress or (lambda _msg: None)
        self.topology = config.build_topology()
        #: Corpus entry id -> its parsed schedule.  An entry never changes
        #: once appended, and one fold runs over one state, so ``run``
        #: empties it and each entry is parsed at most once.
        self._schedules: dict[int, FaultSchedule] = {}

    # -- candidate generation --------------------------------------------------
    def _pick_parent(self, rng: random.Random, state: FuzzState) -> CorpusEntry:
        # Energy = discovery: parents that minted more unseen tokens (plus a
        # bonus for violating ones) are bred more — AFL's power schedule.
        weights = [_corpus_energy(entry) for entry in state.corpus]
        total = sum(weights)
        roll = rng.randrange(total)
        for entry, weight in zip(state.corpus, weights):
            roll -= weight
            if roll < 0:
                return entry
        return state.corpus[-1]

    def _corpus_schedule(self, entry: CorpusEntry) -> FaultSchedule:
        schedule = self._schedules.get(entry.entry_id)
        if schedule is None:
            schedule = FaultSchedule.from_dicts(entry.schedule)
            self._schedules[entry.entry_id] = schedule
        return schedule

    def _candidates(
        self, rng: random.Random, state: FuzzState, count: int
    ) -> list[Candidate]:
        """One batch's candidates, each with its schedule's features.

        Guided batches oversample a mixed pool — corpus mutants plus fresh
        seeds — then greedily select for *feature-space novelty* (max-min
        distance to every schedule already executed and to the picks so
        far).  Behavioral novelty is what the coverage map rewards, and the
        feature vector is its cheap replay-free proxy; the CART tree biases
        the same selection by discounting candidates it predicts will not
        violate anything.
        """
        config = self.config
        fresh = lambda: seed_schedule(  # noqa: E731
            rng, self.topology, horizon=config.horizon, events=config.events
        )

        def candidate(origin: str, parent: int | None, sched: FaultSchedule) -> Candidate:
            return (origin, parent, sched, schedule_features(sched, horizon=config.horizon))

        if not config.guided or not state.corpus:
            return [candidate("seed", None, fresh()) for _ in range(count)]

        wanted = count * config.oversample
        explore = max(1, wanted // 3)
        candidates: list[Candidate] = []
        for _ in range(wanted - explore):
            parent = self._pick_parent(rng, state)
            mate = self._pick_parent(rng, state)
            name, mutant = mutate(
                self._corpus_schedule(parent),
                self._corpus_schedule(mate),
                self.topology,
                rng,
                horizon=config.horizon,
            )
            candidates.append(candidate(name, parent.entry_id, mutant))
        for _ in range(explore):
            candidates.append(candidate("seed", None, fresh()))

        feats = [features for *_, features in candidates]
        tree = self._maybe_fit_tree(state)
        boring = (
            [int(p) == 0 for p in tree.predict(feats)]
            if tree is not None
            else [False] * len(candidates)
        )
        return [candidates[i] for i in _select_novel(feats, boring, state.features, count)]

    def _maybe_fit_tree(self, state: FuzzState) -> DecisionTreeClassifier | None:
        if len(state.labels) < _MIN_TRAIN or len(set(state.labels)) < 2:
            return None
        tree = DecisionTreeClassifier(max_depth=self.config.tree_depth)
        return tree.fit(state.features, state.labels)

    # -- reproducers -----------------------------------------------------------
    def _minimize_class(
        self, state: FuzzState, schedule: FaultSchedule, signature: str, invariant: str
    ) -> None:
        cls = _violation_class(signature)
        if cls in state.reproducers:
            return
        prefix = f"viol:{cls}:"
        config, topology = self.config, self.topology

        def predicate(result: AdversaryResult) -> bool:
            sample = run_coverage(result, horizon=config.horizon)
            return any(s.startswith(prefix) for s in sample.violation_signatures)

        outcome = minimize_schedule(
            schedule,
            target=cls,
            predicate=predicate,
            replay=lambda s: _replay(s, config, topology),
            max_replays=_MINIMIZE_MAX_REPLAYS,
        )
        state.reproducers[cls] = Reproducer(
            violation_class=cls,
            invariant=invariant,
            signature=signature,
            original=schedule.to_dicts(),
            minimized=outcome.minimized.to_dicts(),
            replays=outcome.replays,
            probes=outcome.probes,
        )

    # -- the generation fold ---------------------------------------------------
    def _step(self, state: FuzzState, k: int) -> None:
        config = self.config
        rng = random.Random(f"fuzz:{config.seed}:{k}")
        count = min(config.batch, config.budget - k * config.batch)
        candidates = self._candidates(rng, state, count)
        samples = self._pool.map(
            _execute_task, [(config, self.topology, sched) for _, _, sched, _ in candidates]
        )

        for (origin, parent, sched, features), sample in zip(candidates, samples):
            if sample is None:  # quarantined by the pool; never expected here
                continue
            state.executed += 1
            tokens = set(sample.tokens)
            new_tokens = tokens - state.coverage
            violated = sample.violated
            if violated:
                state.violated_runs += 1
            state.features.append(features)
            state.labels.append(int(violated))
            if new_tokens:
                state.coverage |= tokens
                entry_id = len(state.corpus)
                state.corpus.append(
                    CorpusEntry(
                        entry_id=entry_id,
                        origin=origin,
                        parent=parent,
                        schedule=sched.to_dicts(),
                        new_tokens=tuple(sorted(new_tokens)),
                        violated=violated,
                    )
                )
                self._schedules[entry_id] = sched
            state.signatures.update(sample.violation_signatures)
            if config.minimize:
                for signature in sorted(sample.signature_invariants):
                    invariant = sample.signature_invariants[signature]
                    self._minimize_class(state, sched, signature, invariant)
        state.batch_index = k

    # -- orchestration ---------------------------------------------------------
    @cached_property
    def _pool(self) -> WorkPool:
        # Built on first use, so resuming a finished campaign starts no workers.
        return WorkPool(self.jobs)

    def run(self, *, resume: bool = False) -> FuzzReport:
        config = self.config
        self._schedules = {}
        state, batches, fingerprint = fold_batches(
            self.run_dir,
            f"fuzz-{config.seed}",
            resume=resume,
            config_digest=config.digest(),
            n_batches=config.n_batches,
            initial=lambda: FuzzState(config=config.to_dict()),
            step=self._step,
            save_state=save_state,
            load_state=load_state,
            on_event=self._on_event,
            progress=lambda state, k: self._progress(
                f"batch {k + 1}/{config.n_batches}: "
                f"{len(state.coverage)} tokens, "
                f"{len(state.signatures)} violation signatures"
            ),
        )
        self._export(state, fingerprint)
        return FuzzReport(
            config=config,
            state=state,
            run_dir=self.run_dir,
            resumed=resume,
            batches_executed=batches,
            fingerprint=fingerprint,
        )

    def _export(self, state: FuzzState, fingerprint: str) -> None:
        coverage = {
            "topology": self.topology.summary(),
            "executed": state.executed,
            "violated_runs": state.violated_runs,
            "tokens": sorted(state.coverage),
            "violation_signatures": sorted(state.signatures),
            "corpus_size": len(state.corpus),
            "fingerprint": fingerprint,
        }
        atomic_write(
            self.run_dir / "coverage.json", json.dumps(coverage, sort_keys=True, indent=1)
        )
        reproducers = [
            state.reproducers[key].to_dict() for key in sorted(state.reproducers)
        ]
        atomic_write(
            self.run_dir / "reproducers.json",
            json.dumps(reproducers, sort_keys=True, indent=1),
        )
        atomic_write(self.run_dir / "metrics.jsonl", state_metrics(state).export_jsonl())


def run_campaign(
    config: FuzzConfig,
    run_dir: str | Path,
    *,
    resume: bool = False,
    jobs: int = 1,
    on_event: Callable[[JournalEvent], None] | None = None,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run (or resume) one campaign; the CLI and tests call this."""
    campaign = FuzzCampaign(
        config, run_dir, jobs=jobs, on_event=on_event, progress=progress
    )
    return campaign.run(resume=resume)
