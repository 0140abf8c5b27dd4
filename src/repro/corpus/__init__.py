"""Synthetic bug-corpus generation (substitute for the live trackers).

The paper mines live JIRA/GitHub instances (April 2020 snapshot).  Offline,
we generate a corpus whose *every* reported distribution is calibrated to the
paper's numbers (:mod:`repro.paperdata`): trigger/symptom/root-cause/fix
marginals per controller, determinism rates, configuration sub-categories,
resolution-time tails, quarterly bug bursts around releases, and
category-specific description vocabulary (which is what makes the NLP
pipeline learnable, mirroring the paper's "unique topics per category"
observation, Fig 14).
"""

from repro.corpus.dataset import BugDataset, LabeledBug
from repro.corpus.generator import CorpusGenerator, StudyCorpus
from repro.corpus.io import load_dataset_jsonl, save_dataset_jsonl
from repro.corpus.profiles import ControllerProfile, default_profiles
from repro.corpus.resolution import ResolutionTimeModel

__all__ = [
    "BugDataset",
    "LabeledBug",
    "CorpusGenerator",
    "StudyCorpus",
    "load_dataset_jsonl",
    "save_dataset_jsonl",
    "ControllerProfile",
    "default_profiles",
    "ResolutionTimeModel",
]
