"""Coverage-guided fuzzer: topology, mutation, coverage, state, campaign."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.schedule import FaultSchedule
from repro.errors import FuzzError, ReproError, ScheduleError
from repro.fuzzing import (
    FuzzConfig,
    FuzzState,
    MUTATORS,
    build_topology,
    load_state,
    mutate,
    run_campaign,
    run_coverage,
    save_state,
    schedule_features,
    seed_schedule,
    validate_schedule,
)
from repro.fuzzing.campaign import _distance, _replay, _select_novel
from repro.fuzzing.corpus import FuzzState
from repro.fuzzing.features import FEATURE_NAMES

_SMALL = dict(
    controllers=3, switches=4, budget=16, batch=4, seed=3,
    horizon=20.0, events=3,
)


def _topology(kind="ring", controllers=4, switches=6, seed=0):
    return build_topology(
        kind, controllers=controllers, switches=switches, seed=seed
    )


class _Boom(RuntimeError):
    pass


def _crash_at(n):
    """An ``on_event`` hook that aborts the run at its ``n``-th durable
    journal event."""
    events = 0

    def crash(event):
        nonlocal events
        events += 1
        if events >= n:
            raise _Boom()

    return crash


def _indented_save(state, path):
    """The snapshot writer of earlier releases: sorted keys, ``indent=1``."""
    payload = json.dumps(state.to_dict(), sort_keys=True, indent=1)
    path.write_text(payload, encoding="utf-8")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _select_novel_oracle(feats, boring, executed, count):
    """The quadratic selection: every pick recomputes every candidate's
    distance to every executed or picked vector."""
    chosen = []
    reference = [list(row) for row in executed]
    pool = list(range(len(feats)))
    while pool and len(chosen) < count:
        best_index, best_score = pool[0], -1.0
        for i in pool:
            near = min(
                (_distance(feats[i], ref) for ref in reference), default=1e9
            )
            score = near * (0.5 if boring[i] else 1.0)
            if score > best_score:
                best_index, best_score = i, score
        pool.remove(best_index)
        chosen.append(best_index)
        reference.append(feats[best_index])
    return chosen


def _squared_by_multiplying(a, b):
    return sum((x - y) * (x - y) for x, y in zip(a, b)) ** 0.5


def _rooted_by_sqrt(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _last_bit_twins(alternative, limit=4):
    """Pairs of two-feature rows at the same ``_distance`` from the origin
    that ``alternative`` tells apart on this host, the row it ranks lower
    first.

    ``x ** 2`` and ``** 0.5`` go through libm's ``pow``, which need not be
    correctly rounded: ``x ** 2 != x * x`` for some ``x``, and the two
    rows differ only in the last bits of their first feature.  The
    oracle ties them and picks the first; a selection computing distances
    the alternative way picks the second."""
    rng = random.Random("selection-twins")
    origin = [0.0, 0.0]
    twins = []
    for _ in range(200_000):
        row = [rng.random(), rng.random()]
        twin = list(row)
        for direction in (0.0, 2.0):
            twin[0] = row[0]
            for _ in range(4):
                twin[0] = math.nextafter(twin[0], direction)
                if _distance(twin, origin) == _distance(row, origin) and (
                    alternative(twin, origin) != alternative(row, origin)
                ):
                    twins.append(sorted((row, list(twin)), key=lambda r: alternative(r, origin)))
        if len(twins) >= limit:
            break
    return twins


class TestTopology:
    def test_seed_stable(self):
        assert _topology() == _topology()
        assert _topology(seed=1) != _topology(seed=2) or (
            _topology(seed=1).partition_specs
            == _topology(seed=2).partition_specs
        )

    def test_shape(self):
        topo = _topology(kind="fattree", controllers=10, switches=200)
        assert topo.controllers == 10
        assert topo.switches == 200
        assert len(topo.channel_targets()) == 210
        assert topo.partition_specs
        nodes = set(topo.nodes)
        for spec in topo.partition_specs:
            mentioned = {
                part for group in spec.split("|") for part in group.split(",")
            }
            assert mentioned <= nodes

    def test_validation(self):
        with pytest.raises(FuzzError, match="unknown topology"):
            build_topology("mesh", controllers=3, switches=3)
        with pytest.raises(FuzzError, match="two controllers"):
            build_topology("ring", controllers=1, switches=3)
        with pytest.raises(FuzzError, match="one switch"):
            build_topology("ring", controllers=3, switches=0)
        with pytest.raises(FuzzError, match="flows"):
            build_topology("ring", controllers=3, switches=3, flows=0)


class TestMutation:
    @given(
        kind=st.sampled_from(["ring", "star", "fattree"]),
        controllers=st.integers(min_value=2, max_value=6),
        switches=st.integers(min_value=1, max_value=8),
        events=st.integers(min_value=1, max_value=8),
        operator=st.sampled_from(sorted(MUTATORS)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutants_well_formed_and_deterministic(
        self, kind, controllers, switches, events, operator, seed
    ):
        topo = build_topology(kind, controllers=controllers, switches=switches)
        horizon = 30.0
        gen = random.Random(f"gen:{seed}")
        schedule = seed_schedule(gen, topo, horizon=horizon, events=events)
        mate = seed_schedule(gen, topo, horizon=horizon, events=events)
        validate_schedule(schedule, topo, horizon=horizon)

        name, mutant = mutate(
            schedule, mate, topo, random.Random(f"mut:{seed}"),
            horizon=horizon, operator=operator,
        )
        assert name == operator
        # Well-formed: times in range, targets valid for their actions.
        validate_schedule(mutant, topo, horizon=horizon)
        # Time-sorted by construction.
        times = [e.time for e in mutant.events]
        assert times == sorted(times)
        # Seed-deterministic: same rng state, bit-for-bit same mutant.
        _, again = mutate(
            schedule, mate, topo, random.Random(f"mut:{seed}"),
            horizon=horizon, operator=operator,
        )
        assert mutant == again

    def test_empty_schedule_rejected(self):
        topo = _topology()
        with pytest.raises(FuzzError, match="empty"):
            mutate(FaultSchedule(), FaultSchedule(), topo,
                   random.Random(0), horizon=30.0)

    def test_unknown_operator_rejected(self):
        topo = _topology()
        schedule = seed_schedule(random.Random(0), topo, horizon=30.0, events=2)
        with pytest.raises(FuzzError, match="unknown mutation operator"):
            mutate(schedule, schedule, topo, random.Random(0),
                   horizon=30.0, operator="transmogrify")

    def test_validate_schedule_catches_bad_targets(self):
        topo = _topology()
        bad = FaultSchedule.from_dicts(
            [{"time": 1.0, "target": "node:zz", "action": "drop"}]
        )
        with pytest.raises(ScheduleError):
            validate_schedule(bad, topo, horizon=30.0)


class TestSelection:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_incremental_selection_matches_the_quadratic_oracle(self, data):
        """Same picks in the same order as recomputing every distance for
        every pick, on grids coarse enough that many scores tie, with
        nothing executed yet and with ``count`` past the pool size."""
        grid = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.5, 4e9]),
                min_size=2, max_size=3, unique=True,
            )
        )
        width = data.draw(st.integers(min_value=1, max_value=4))
        row = st.lists(st.sampled_from(grid), min_size=width, max_size=width)
        feats = data.draw(st.lists(row, max_size=12))
        boring = data.draw(
            st.lists(st.booleans(), min_size=len(feats), max_size=len(feats))
        )
        executed = data.draw(st.lists(row, max_size=5))
        count = data.draw(st.integers(min_value=0, max_value=len(feats) + 2))
        assert _select_novel(feats, boring, executed, count) == (
            _select_novel_oracle(feats, boring, executed, count)
        )

    @pytest.mark.parametrize(
        "alternative", [_squared_by_multiplying, _rooted_by_sqrt]
    )
    def test_last_bit_ties_pick_like_the_oracle(self, alternative):
        """Rows that tie under ``_distance`` but not under a distance that
        squares by multiplying or roots with ``sqrt``: the pick is the
        oracle's, whether the tie is against an executed vector, against
        the first pick of an unmeasured batch, or against a later pick."""
        twins = _last_bit_twins(alternative)
        if not twins:
            pytest.skip("pow is correctly rounded for these values on this host")
        for low, high in twins:
            problems = [
                ([low, high], [[0.0, 0.0]], 1),
                ([[0.0, 0.0], low, high], [], 2),
                ([[0.0, 0.0], low, high], [[100.0, 100.0]], 2),
            ]
            for feats, executed, count in problems:
                boring = [False] * len(feats)
                expected = _select_novel_oracle(feats, boring, executed, count)
                assert _select_novel(feats, boring, executed, count) == expected
                assert expected[-1] == feats.index(low)


class TestCoverage:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_signature_bit_stable(self, seed):
        """Same schedule + same world => bit-for-bit same coverage."""
        config = FuzzConfig(controllers=3, switches=4, horizon=20.0)
        topo = config.build_topology()
        schedule = seed_schedule(
            random.Random(f"cov:{seed}"), topo, horizon=20.0, events=4
        )
        samples = [
            run_coverage(_replay(schedule, config, topo), horizon=20.0)
            for _ in range(2)
        ]
        assert samples[0].tokens == samples[1].tokens
        assert samples[0].signature == samples[1].signature
        assert samples[0].violation_signatures == samples[1].violation_signatures
        # viol tokens are exactly the signature subset.
        assert set(samples[0].violation_signatures) == {
            t for t in samples[0].tokens if t.startswith("viol:")
        }

    def test_features_fixed_length(self):
        topo = _topology()
        schedule = seed_schedule(random.Random(1), topo, horizon=30.0, events=5)
        feats = schedule_features(schedule, horizon=30.0)
        assert len(feats) == len(FEATURE_NAMES)
        assert schedule_features(FaultSchedule(), horizon=30.0) == (
            [0.0] * len(FEATURE_NAMES)
        )


class TestState:
    def test_round_trip(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        report = run_campaign(config, tmp_path / "run")
        state = report.state
        clone = FuzzState.from_dict(
            json.loads(json.dumps(state.to_dict(), sort_keys=True))
        )
        assert clone.fingerprint() == state.fingerprint()

    def test_save_load_verifies_digest(self, tmp_path):
        state = FuzzState(config=FuzzConfig(**_SMALL).to_dict())
        path = tmp_path / "state.json"
        digest = save_state(state, path)
        loaded = load_state(path, expect_digest=digest)
        assert loaded.fingerprint() == state.fingerprint()
        with pytest.raises(FuzzError, match="digest mismatch"):
            load_state(path, expect_digest="0" * 64)

    def test_save_returns_the_fingerprint(self, tmp_path):
        state = run_campaign(FuzzConfig(**_SMALL), tmp_path / "run").state
        path = tmp_path / "state.json"
        assert save_state(state, path) == state.fingerprint()
        assert path.read_text(encoding="utf-8") == state.canonical_json()

    def test_missing_and_corrupt_snapshots_rejected(self, tmp_path):
        with pytest.raises(FuzzError, match="does not exist"):
            load_state(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{torn", encoding="utf-8")
        with pytest.raises(FuzzError, match="not valid JSON"):
            load_state(bad)
        versioned = tmp_path / "versioned.json"
        versioned.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(FuzzError, match="version"):
            load_state(versioned)


#: Final state fingerprints at the fuzz kill smoke's shape (``FUZZ_CONFIG``,
#: seeds 7-9): a replay change that moves one monitor edge moves them.
SMOKE_FINGERPRINTS = {
    7: "43cd052123f6654ee5cc3ec1ce8da1c539cc25493897bda87fe006ac5869a33b",
    8: "6d638ec26c86dcdb8ecf8e395c30afbd66cf01a0d6fa638c37732d3439a3b849",
    9: "f493be29b9c6e4b7ab1a3f16d99347ecf3a3c0f9ded8f71f7a2009bc38ffd67e",
}


@pytest.mark.parametrize("seed", sorted(SMOKE_FINGERPRINTS))
def test_smoke_shape_fingerprints_are_pinned(tmp_path, seed):
    from repro.recovery.smoke import FUZZ_CONFIG

    config = FuzzConfig(**{**FUZZ_CONFIG.to_dict(), "seed": seed})
    report = run_campaign(config, tmp_path / "run")
    assert report.state.executed == config.budget
    assert report.fingerprint == report.state.fingerprint() == SMOKE_FINGERPRINTS[seed]


class TestCampaign:
    def test_deterministic_given_seed(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        one = run_campaign(config, tmp_path / "one")
        two = run_campaign(config, tmp_path / "two")
        assert one.state.fingerprint() == two.state.fingerprint()

    def test_reproducers_replay(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        report = run_campaign(config, tmp_path / "run")
        assert report.state.executed == config.budget
        topo = config.build_topology()
        for cls in sorted(report.state.reproducers):
            entry = report.state.reproducers[cls]
            minimized = FaultSchedule.from_dicts(entry.minimized)
            sample = run_coverage(
                _replay(minimized, config, topo), horizon=config.horizon
            )
            assert any(
                s.startswith(f"viol:{cls}:")
                for s in sample.violation_signatures
            )

    def test_exports_written(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        report = run_campaign(config, tmp_path / "run")
        coverage = json.loads((tmp_path / "run" / "coverage.json").read_text())
        assert coverage["fingerprint"] == report.fingerprint == report.state.fingerprint()
        assert coverage["executed"] == config.budget
        reproducers = json.loads(
            (tmp_path / "run" / "reproducers.json").read_text()
        )
        assert len(reproducers) == len(report.state.reproducers)

    def test_crash_then_resume_is_bit_identical(self, tmp_path):
        """Abort mid-campaign right after a durable journal event; resume
        must converge on the uninterrupted run's exact state."""
        config = FuzzConfig(**_SMALL)
        reference = run_campaign(config, tmp_path / "reference")
        # Mid-campaign, after a batch commit is durable.
        with pytest.raises(_Boom):
            run_campaign(config, tmp_path / "crashed", on_event=_crash_at(4))
        resumed = run_campaign(config, tmp_path / "crashed", resume=True)
        assert resumed.state.fingerprint() == reference.state.fingerprint()

    def test_resumes_a_run_with_indented_snapshots(self, tmp_path, monkeypatch):
        """A run directory whose snapshots are sorted-key ``indent=1`` JSON,
        as earlier releases wrote them, resumes: the snapshot loads under
        the digest its journal committed."""
        config = FuzzConfig(**_SMALL)
        reference = run_campaign(config, tmp_path / "reference")
        with monkeypatch.context() as patch:
            patch.setattr("repro.fuzzing.campaign.save_state", _indented_save)
            with pytest.raises(_Boom):
                run_campaign(config, tmp_path / "old", on_event=_crash_at(4))
        (snapshot,) = (tmp_path / "old").glob("state-*.json")
        assert snapshot.read_text(encoding="utf-8").startswith("{\n ")
        resumed = run_campaign(config, tmp_path / "old", resume=True)
        assert resumed.batches_executed > 0
        assert resumed.state.fingerprint() == reference.state.fingerprint()

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        run_campaign(config, tmp_path / "run")
        with pytest.raises(ReproError, match="already exists"):
            run_campaign(config, tmp_path / "run")

    def test_resume_refuses_config_drift(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        run_campaign(config, tmp_path / "run")
        drifted = FuzzConfig(**{**_SMALL, "budget": 20})
        with pytest.raises(ReproError, match="different configuration"):
            run_campaign(drifted, tmp_path / "run", resume=True)

    def test_resume_of_finished_run_is_a_no_op(self, tmp_path):
        config = FuzzConfig(**_SMALL)
        report = run_campaign(config, tmp_path / "run")
        again = run_campaign(config, tmp_path / "run", resume=True)
        assert again.batches_executed == 0
        assert again.state.fingerprint() == report.state.fingerprint()

    def test_resume_of_finished_run_rewrites_exports_without_encoding(
        self, tmp_path, monkeypatch
    ):
        """A run killed after its last commit left no exports; the resume
        writes them byte for byte from the committed snapshot and its
        journaled digest, without encoding the state again."""
        config = FuzzConfig(**_SMALL)
        report = run_campaign(config, tmp_path / "run")
        names = ("coverage.json", "reproducers.json", "metrics.jsonl")
        exports = {name: (tmp_path / "run" / name).read_bytes() for name in names}
        for name in names:
            (tmp_path / "run" / name).unlink()

        def encode(_state):
            raise AssertionError("a finished campaign's resume encoded its state")

        monkeypatch.setattr(FuzzState, "_chunks", encode)
        again = run_campaign(config, tmp_path / "run", resume=True)
        assert again.batches_executed == 0
        assert again.fingerprint == report.fingerprint
        assert {name: (tmp_path / "run" / name).read_bytes() for name in names} == exports

    def test_random_arm_takes_no_guidance(self, tmp_path):
        config = FuzzConfig(**{**_SMALL, "guided": False, "minimize": False})
        report = run_campaign(config, tmp_path / "run")
        assert report.state.executed == config.budget
        assert all(e.origin == "seed" for e in report.state.corpus)

    def test_config_validation(self):
        with pytest.raises(FuzzError):
            FuzzConfig(budget=0)
        with pytest.raises(FuzzError):
            FuzzConfig(topology="mesh")
        with pytest.raises(FuzzError):
            FuzzConfig(horizon=0.0)
        for name in ("echo_interval", "check_interval"):
            for bad in (0.0, -2.5):
                with pytest.raises(FuzzError, match=f"{name} must be positive"):
                    FuzzConfig(**{name: bad})


class TestCli:
    def test_fuzz_command(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "fuzz", "--budget", "8", "--batch", "4",
            "--controllers", "3", "--switches", "4",
            "--horizon", "20", "--seed", "3",
            "--run-dir", str(tmp_path / "cli"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violation signatures" in out
        assert (tmp_path / "cli" / "coverage.json").exists()

    def test_fuzz_resume_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        args = [
            "fuzz", "--budget", "8", "--batch", "4",
            "--controllers", "3", "--switches", "4",
            "--horizon", "20", "--seed", "3",
            "--run-dir", str(tmp_path / "cli"),
        ]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        first, second = capsys.readouterr().out.split("state fingerprint: ")[1:]
        assert first.split("...")[0] == second.split("...")[0]
