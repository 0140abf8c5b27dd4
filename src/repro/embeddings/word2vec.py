"""Skip-gram Word2Vec with negative sampling (Mikolov et al., 2013).

Pure-numpy implementation: for each ``(center, context)`` pair drawn from a
sliding window, the model pushes the center vector toward the context output
vector and away from ``negative`` sampled noise words.  Noise words are drawn
from the unigram distribution raised to the 3/4 power, as in the original
paper.  Training is deterministic for a fixed seed.

Training is sequential SGD, one step per pair, executed in batches.  Step
*i* reads and writes only ``vectors[center_i]`` and ``output[targets_i]``
(its context and its noise words), so steps that share no row commute.  Each
block of :data:`SCHEDULE_BLOCK` consecutive steps is level-scheduled: a step
runs one level after the last earlier step that touched any of its rows, and
each level runs as one batched numpy update that keeps every step's own
arithmetic (one gemv, elementwise sigmoid, a sum over its targets, a
last-write-wins scatter).  The trained vectors are therefore bit-identical
to taking the steps one at a time in order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.textmining.tokenizer import sliding_windows
from repro.textmining.vocabulary import Vocabulary


#: Consecutive SGD steps scheduled together.  A block boundary is only a
#: barrier, so results do not depend on it; it keeps the scheduler's
#: temporaries small.
SCHEDULE_BLOCK = 1024


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipped for numerical stability at large |x|.  np.minimum/np.maximum
    # give np.clip's bits without its Python-level wrapper.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -30.0), 30.0)))


def _levels(rows: list[list[int]], n_rows: int) -> list[int]:
    """Level of each step: one after the last earlier step sharing a row."""
    last = [0] * n_rows
    levels = []
    for step_rows in rows:
        level = max(map(last.__getitem__, step_rows)) + 1
        for row in step_rows:
            last[row] = level
        levels.append(level)
    return levels


def _train_block(
    vectors: np.ndarray,
    output: np.ndarray,
    centers: np.ndarray,
    targets: np.ndarray,
    rates: np.ndarray,
) -> None:
    """Consecutive SGD steps, in place, as if taken one at a time in order.

    Step ``j`` moves ``vectors[centers[j]]`` and ``output[targets[j]]`` (its
    context first, then its noise words) at learning rate ``rates[j]``.
    """
    labels = np.zeros((targets.shape[1], 1))
    labels[0] = 1.0
    # One id space for both matrices: output rows follow the vectors' rows.
    rows = np.concatenate((centers[:, None], targets + len(vectors)), axis=1)
    levels = np.array(_levels(rows.tolist(), len(vectors) + len(output)))
    order = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels)).tolist()
    centers, targets, rates = centers[order], targets[order], rates[order]
    rates2, rates3 = rates[:, None], rates[:, None, None]
    for lo, hi in zip(bounds, bounds[1:]):
        center, target = centers[lo:hi], targets[lo:hi]
        v = vectors.take(center, axis=0)
        out = output.take(target, axis=0)
        gradient = _sigmoid(np.matmul(out, v[:, :, None])) - labels
        v_grad = np.add.reduce(gradient * out, axis=1)
        output[target] = out - rates3[lo:hi] * gradient * v[:, None, :]
        vectors[center] = v - rates2[lo:hi] * v_grad


class Word2Vec:
    """Skip-gram with negative sampling.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality.
    window:
        Max distance between center and context token.
    negative:
        Number of noise samples per positive pair.
    epochs:
        Passes over the pair stream.
    learning_rate:
        Initial SGD step size, linearly decayed to 10% across training.
    min_count:
        Tokens rarer than this are dropped from the vocabulary.
    seed:
        Seed for init and noise sampling.
    """

    def __init__(
        self,
        *,
        vector_size: int = 64,
        window: int = 4,
        negative: int = 5,
        epochs: int = 5,
        learning_rate: float = 0.025,
        min_count: int = 2,
        seed: int = 0,
    ) -> None:
        if vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        self.vector_size = vector_size
        self.window = window
        self.negative = negative
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.min_count = min_count
        self.seed = seed
        self.vocabulary_: Vocabulary | None = None
        self.vectors_: np.ndarray | None = None  # input vectors (the embeddings)
        self._output: np.ndarray | None = None  # context vectors

    def fit(self, documents: Sequence[Sequence[str]]) -> "Word2Vec":
        """Train on tokenized ``documents``."""
        vocab = Vocabulary(documents, min_count=self.min_count)
        if len(vocab) == 0:
            raise ValueError("empty vocabulary; lower min_count or add documents")
        rng = np.random.default_rng(self.seed)
        n = len(vocab)
        vectors = (rng.random((n, self.vector_size)) - 0.5) / self.vector_size
        output = np.zeros((n, self.vector_size))

        # Noise distribution: unigram^(3/4).
        counts = np.array(vocab.counts, dtype=np.float64)
        noise = counts**0.75
        noise /= noise.sum()

        # Pre-encode documents once.
        encoded = [vocab.encode(doc) for doc in documents]
        pairs: list[tuple[int, int]] = []
        for doc in encoded:
            for center, context in sliding_windows(doc, self.window):
                for ctx in context:
                    pairs.append((center, ctx))
        if not pairs:
            raise ValueError("no training pairs; documents too short for window")
        pair_array = np.array(pairs, dtype=np.int64)

        total_steps = max(self.epochs * len(pair_array), 1)
        for epoch in range(self.epochs):
            order = rng.permutation(len(pair_array))
            negatives = rng.choice(
                n, size=(len(pair_array), self.negative), p=noise
            )
            for lo in range(0, len(order), SCHEDULE_BLOCK):
                hi = min(lo + SCHEDULE_BLOCK, len(order))
                steps = np.arange(lo, hi) + epoch * len(pair_array)
                rates = self.learning_rate * np.maximum(0.1, 1.0 - steps / total_steps)
                chosen = pair_array[order[lo:hi]]
                targets = np.concatenate((chosen[:, 1:], negatives[lo:hi]), axis=1)
                _train_block(vectors, output, chosen[:, 0], targets, rates)
        self.vocabulary_ = vocab
        self.vectors_ = vectors
        self._output = output
        return self

    def __contains__(self, token: str) -> bool:
        return self.vocabulary_ is not None and token in self.vocabulary_

    def vector(self, token: str) -> np.ndarray:
        """Embedding for ``token``; raises KeyError if out of vocabulary."""
        if self.vocabulary_ is None or self.vectors_ is None:
            raise NotFittedError("Word2Vec.vector called before fit")
        return self.vectors_[self.vocabulary_.index(token)]
