"""Robustness ablations for the threats to validity (SS VIII).

Three questions the paper's threats section raises, made measurable:

* **Annotator noise** — "our manual analysis's validity is predicated on
  the fact that the bugs are accurately described and reported".  How fast
  does classifier accuracy degrade as training labels are corrupted?
* **Sample size** — is 50 manually labeled bugs per controller enough?
* **Generalizability** — "we believe that our analysis generalizes to
  future controllers".  Does a model trained on two controllers transfer to
  the third (whose vocabulary it has never seen)?
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.corpus.dataset import BugDataset
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import train_test_split
from repro.pipeline.autoclassifier import AutoClassifier


def _split_texts(dataset: BugDataset, dimension: str, *, seed: int):
    texts = dataset.texts()
    labels = dataset.labels(dimension)
    index = np.arange(len(texts)).reshape(-1, 1)
    X_train, X_test, y_train, y_test = train_test_split(
        index, labels, seed=seed, stratify=True
    )
    train_texts = [texts[int(i)] for i in X_train[:, 0]]
    test_texts = [texts[int(i)] for i in X_test[:, 0]]
    return train_texts, test_texts, y_train, y_test


def accuracy_under_label_noise(
    dataset: BugDataset,
    dimension: str,
    noise_rate: float,
    *,
    seed: int = 0,
) -> float:
    """Test accuracy after flipping ``noise_rate`` of *training* labels to a
    uniformly random different tag (test labels stay clean)."""
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must be in [0, 1)")
    train_texts, test_texts, y_train, y_test = _split_texts(
        dataset, dimension, seed=seed
    )
    rng = random.Random(seed + 1)
    tags = sorted(set(y_train))
    noisy = list(y_train)
    flip_count = int(round(noise_rate * len(noisy)))
    for i in rng.sample(range(len(noisy)), flip_count):
        alternatives = [t for t in tags if t != noisy[i]]
        if alternatives:
            noisy[i] = rng.choice(alternatives)
    model = AutoClassifier(seed=seed).fit(train_texts, noisy)
    return accuracy_score(y_test, model.predict(test_texts))


def accuracy_vs_sample_size(
    dataset: BugDataset,
    dimension: str,
    per_controller_sizes: list[int],
    *,
    seed: int = 0,
) -> dict[int, float]:
    """Held-out accuracy as a function of the manual-sample size.

    For each size, a fresh manual sample of that many *closed* bugs per
    controller is drawn and validated with the standard 2/3-1/3 protocol.
    """
    results: dict[int, float] = {}
    for size in per_controller_sizes:
        sample = dataset.manual_sample(per_controller=size, seed=seed)
        train_texts, test_texts, y_train, y_test = _split_texts(
            sample, dimension, seed=seed
        )
        model = AutoClassifier(seed=seed).fit(train_texts, y_train)
        results[size] = accuracy_score(y_test, model.predict(test_texts))
    return results


@dataclass(frozen=True)
class TransferResult:
    """Leave-one-controller-out transfer result."""

    held_out: str
    accuracy: float
    n_train: int
    n_test: int


def cross_controller_transfer(
    dataset: BugDataset, dimension: str
) -> list[TransferResult]:
    """Train on two controllers' bugs, test on the third, for each fold."""
    results: list[TransferResult] = []
    for held_out in dataset.controllers:
        train_set = dataset.filter(lambda b: b.controller != held_out)
        test_set = dataset.by_controller(held_out)
        model = AutoClassifier(seed=0)
        model.fit(train_set.texts(), train_set.labels(dimension))
        predictions = model.predict(test_set.texts())
        results.append(
            TransferResult(
                held_out=held_out,
                accuracy=accuracy_score(test_set.labels(dimension), predictions),
                n_train=len(train_set),
                n_test=len(test_set),
            )
        )
    return results
