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

:func:`train_together` trains several models in lockstep: each round takes
the next block of every model still training, levels each block over its
own rows, and runs level *k* of all of them as one batched update over
their concatenated rows.  Models share no row, so every model ends
bit-identical to its own fit, and :meth:`Word2Vec.fit` is the one-model
call.
"""

from __future__ import annotations

from array import array
from itertools import zip_longest
from typing import Iterator, Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.textmining.tokenizer import sliding_windows
from repro.textmining.vocabulary import Vocabulary


#: Consecutive SGD steps scheduled together.  A block boundary is only a
#: barrier, so results do not depend on it; it keeps the scheduler's
#: temporaries small.
SCHEDULE_BLOCK = 1024

#: A block of one model's steps: each step's level, center row, target rows
#: (context first, then noise words) and learning rate, rows numbered in the
#: matrices every model of a lockstep run shares.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


def _pairs(vocab: Vocabulary, documents: Sequence[Sequence[str]], window: int) -> np.ndarray:
    """Every ``(center, context)`` id pair, document by document."""
    # A flat int64 buffer, not a list of tuples: the ~29k pairs of a
    # study-sized fit would otherwise allocate megabytes of small objects
    # that stay resident after they are freed.
    flat = array("q")
    for doc in documents:
        for center, context in sliding_windows(vocab.encode(doc), window):
            for ctx in context:
                flat.append(center)
                flat.append(ctx)
    if not flat:
        raise ValueError("no training pairs; documents too short for window")
    return np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)


def _blocks(
    model: "Word2Vec",
    rng: np.random.Generator,
    pairs: np.ndarray,
    noise: np.ndarray,
    offset: int,
) -> Iterator[_Block]:
    """``model``'s steps block by block; its rows start at ``offset``.

    Each epoch draws its permutation, then each block its noise words.
    ``rng.choice`` with ``p`` consumes one double per sample, in order, so
    these are the draws one ``choice`` per epoch would make.
    """
    n, n_pairs = len(noise), len(pairs)
    total_steps = max(model.epochs * n_pairs, 1)
    for epoch in range(model.epochs):
        order = rng.permutation(n_pairs)
        for lo in range(0, n_pairs, SCHEDULE_BLOCK):
            hi = min(lo + SCHEDULE_BLOCK, n_pairs)
            negatives = rng.choice(n, size=(hi - lo, model.negative), p=noise)
            steps = np.arange(lo, hi) + epoch * n_pairs
            rates = model.learning_rate * np.maximum(0.1, 1.0 - steps / total_steps)
            chosen = pairs[order[lo:hi]]
            centers = chosen[:, 0]
            targets = np.concatenate((chosen[:, 1:], negatives), axis=1)
            # Levels over the model's own rows: output rows follow its vectors'.
            rows = np.concatenate((centers[:, None], targets + n), axis=1)
            levels = np.array(_levels(rows.tolist(), 2 * n))
            yield levels, centers + offset, targets + offset, rates


def _train_round(vectors: np.ndarray, output: np.ndarray, blocks: list[_Block]) -> None:
    """Take one block of steps per model, in place, level by level.

    Level *k* of every block runs as one batched update.  Steps in a level
    share no row (within a block by its levels, across blocks because
    models own disjoint rows), so each step reads its rows as they stood
    after the steps before it in its own model.
    """
    levels, centers, targets, rates = (np.concatenate(part) for part in zip(*blocks))
    order = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels)).tolist()
    centers, targets, rates = centers[order], targets[order], rates[order]
    rates2, rates3 = rates[:, None], rates[:, None, None]
    labels = np.zeros((targets.shape[1], 1))
    labels[0] = 1.0
    for lo, hi in zip(bounds, bounds[1:]):
        center, target = centers[lo:hi], targets[lo:hi]
        v = vectors.take(center, axis=0)
        out = output.take(target, axis=0)
        gradient = _sigmoid(np.matmul(out, v[:, :, None])) - labels
        v_grad = np.add.reduce(gradient * out, axis=1)
        output[target] = out - rates3[lo:hi] * gradient * v[:, None, :]
        vectors[center] = v - rates2[lo:hi] * v_grad


def train_together(
    models: Sequence["Word2Vec"], corpora: Sequence[Sequence[Sequence[str]]]
) -> None:
    """Train ``models[i]`` on the tokenized documents ``corpora[i]``, in lockstep.

    Every model ends bit-identical to its own :meth:`Word2Vec.fit`.  The
    models must agree on ``vector_size`` and ``negative``, because their
    steps share each level's arrays; every other setting is per model.
    """
    if len(models) != len(corpora):
        raise ValueError("train_together needs one corpus per model")
    if len({(model.vector_size, model.negative) for model in models}) > 1:
        raise ValueError("models trained together must share vector_size and negative")
    if not models:
        return
    vocabs, starts, streams, spans = [], [], [], []
    offset = 0
    for model, documents in zip(models, corpora):
        vocab = Vocabulary(documents, min_count=model.min_count)
        if len(vocab) == 0:
            raise ValueError("empty vocabulary; lower min_count or add documents")
        rng = np.random.default_rng(model.seed)
        n = len(vocab)
        starts.append((rng.random((n, model.vector_size)) - 0.5) / model.vector_size)
        # Noise distribution: unigram^(3/4).
        noise = np.array(vocab.counts, dtype=np.float64) ** 0.75
        noise /= noise.sum()
        pairs = _pairs(vocab, documents, model.window)
        streams.append(_blocks(model, rng, pairs, noise, offset))
        vocabs.append(vocab)
        spans.append(slice(offset, offset + n))
        offset += n
    # Every model's rows, one model after another, in one pair of matrices.
    vectors = np.concatenate(starts)
    output = np.zeros_like(vectors)
    for blocks in zip_longest(*streams):
        _train_round(vectors, output, [block for block in blocks if block is not None])
    for model, vocab, rows in zip(models, vocabs, spans):
        model.vocabulary_ = vocab
        model.vectors_ = vectors[rows]
        model._output = output[rows]


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
        train_together([self], [documents])
        return self

    def __contains__(self, token: str) -> bool:
        return self.vocabulary_ is not None and token in self.vocabulary_

    def vector(self, token: str) -> np.ndarray:
        """Embedding for ``token``; raises KeyError if out of vocabulary."""
        if self.vocabulary_ is None or self.vectors_ is None:
            raise NotFittedError("Word2Vec.vector called before fit")
        return self.vectors_[self.vocabulary_.index(token)]
