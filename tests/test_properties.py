"""Cross-cutting property-based tests on core invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusGenerator, default_profiles
from repro.corpus.profiles import ControllerProfile
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.datapath import Switch
from repro.sdnsim.messages import BROADCAST_MAC, Packet
from repro.sdnsim.topology import Fabric, Link
from repro.taxonomy import BugLabel, Symptom, Trigger


class TestProfileProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sampled_labels_always_validate(self, seed):
        """Every label the generator draws satisfies the taxonomy's
        consistency rules (BugLabel.__post_init__ would raise otherwise)."""
        generator = CorpusGenerator(seed=seed)
        rng = random.Random(seed)
        profile = default_profiles()["CORD"]
        for _ in range(20):
            label = generator.sample_label(profile, rng)
            assert isinstance(label, BugLabel)
            if label.trigger is Trigger.CONFIGURATION:
                assert label.config_subcategory is not None
            if label.symptom is Symptom.BYZANTINE:
                assert label.byzantine_mode is not None

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_determinism_rates_within_unit_interval(self, seed):
        for profile in default_profiles().values():
            for cause, share in profile.expected_root_cause_marginal().items():
                assert 0.0 <= share <= 1.0
                assert 0.0 <= profile.determinism_rate(cause) <= 1.0

    def test_expected_marginals_are_distributions(self):
        for profile in default_profiles().values():
            assert sum(profile.expected_root_cause_marginal().values()) == pytest.approx(1.0)
            for dist in profile.symptom_given_cause.values():
                assert sum(dist.values()) == pytest.approx(1.0)


class TestSchedulerProperties:
    @given(
        delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=25),
        cut=st.floats(1.0, 40.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_until_is_prefix_of_full_run(self, delays, cut):
        """Running to a horizon then continuing produces the same sequence
        as one uninterrupted run."""

        def collect(two_phase: bool) -> list[float]:
            scheduler = EventScheduler()
            seen: list[float] = []
            for delay in delays:
                scheduler.schedule(delay, lambda d=delay: seen.append(d))
            if two_phase:
                scheduler.run(until=cut)
                scheduler.run()
            else:
                scheduler.run()
            return seen

        assert collect(True) == collect(False)


class TestFabricProperties:
    @given(n_switches=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_line_topology_flood_reaches_every_switch(self, n_switches, seed):
        """A broadcast flooded hop-by-hop traverses any line topology
        without tripping the loop detector."""
        fabric = Fabric()
        for dpid in range(1, n_switches + 1):
            fabric.add_switch(Switch(dpid, [1, 2, 3]))
        for dpid in range(1, n_switches):
            fabric.add_link(Link(dpid, 3, dpid + 1, 2))
        # Static flood rules: every switch floods everything.
        from repro.sdnsim.messages import Action, FlowMod, Match, PORT_FLOOD

        for dpid in range(1, n_switches + 1):
            fabric.switches[dpid].apply_flow_mod(
                FlowMod(dpid=dpid, match=Match(), actions=(Action(PORT_FLOOD),))
            )
        fabric.inject(1, 1, Packet(src_mac="aa:01", dst_mac=BROADCAST_MAC))
        for dpid in range(2, n_switches + 1):
            assert any(
                port == 1 for port, _ in fabric.switches[dpid].delivered
            ), f"switch {dpid} host port missed the broadcast"


class TestCorpusProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_manual_sample_is_always_closed_subset(self, seed):
        corpus = CorpusGenerator(seed=seed).generate()
        sample = corpus.dataset.manual_sample(per_controller=10, seed=seed)
        ids = {b.bug_id for b in corpus.dataset}
        for bug in sample:
            assert bug.bug_id in ids
            assert bug.report.status.is_closed

    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_resolution_never_precedes_creation(self, seed):
        corpus = CorpusGenerator(seed=seed).generate()
        for bug in corpus.dataset:
            if bug.report.resolved_at is not None:
                assert bug.report.resolved_at >= bug.report.created_at
