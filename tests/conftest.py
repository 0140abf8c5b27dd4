"""Shared fixtures: expensive artifacts are built once per session."""

from __future__ import annotations

import gc

import pytest

import repro.recovery.checkpoint
import repro.recovery.journal
import repro.stream.ingest
from repro.codebase import release_series
from repro.corpus import CorpusGenerator, StudyCorpus
from repro.corpus.dataset import BugDataset


@pytest.fixture(scope="session")
def corpus() -> StudyCorpus:
    """The full seeded study corpus (795 critical bugs, both trackers)."""
    return CorpusGenerator(seed=2020).generate()


@pytest.fixture(scope="session")
def dataset(corpus: StudyCorpus) -> BugDataset:
    return corpus.dataset


@pytest.fixture(scope="session")
def manual_sample(corpus: StudyCorpus) -> BugDataset:
    """The paper's 150-bug manual-analysis sample."""
    return corpus.manual_sample


@pytest.fixture(scope="session")
def onos_models():
    """Synthetic ONOS code models for every release (Fig 8 substrate)."""
    return release_series()


@pytest.fixture
def collector_state():
    """Put the collector back as the test found it, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def journal_parses(monkeypatch) -> list:
    """Paths of every journal parse made through the modules that open
    journals (``replay_journal`` calls), in call order."""
    parses = []
    replay_journal = repro.recovery.journal.replay_journal

    def counting(path):
        parses.append(path)
        return replay_journal(path)

    for module in (repro.recovery.journal, repro.recovery.checkpoint, repro.stream.ingest):
        monkeypatch.setattr(module, "replay_journal", counting)
    return parses
