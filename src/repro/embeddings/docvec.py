"""Document vectors: map a bug description to a point in Euclidean space.

SS II-C: "these two steps allow us to map each bug to a numerical vector in a
Euclidean space".  We combine per-token Word2Vec embeddings into a single
document vector by IDF-weighted averaging.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings.word2vec import Word2Vec
from repro.errors import NotFittedError


class DocumentVectorizer:
    """Average the Word2Vec vectors of a document's in-vocabulary tokens.

    Each token is weighted by its IDF, so tokens common across the corpus
    contribute less, sharpening class-discriminative keywords (mirrors the
    paper's TF-IDF step feeding the embedding stage).
    """

    def __init__(self, model: Word2Vec) -> None:
        if model.vocabulary_ is None or model.vectors_ is None:
            raise NotFittedError("DocumentVectorizer requires a fitted Word2Vec")
        self.model = model
        vocab = model.vocabulary_
        n_docs = max(vocab.n_documents, 1)
        self._idf = {
            token: float(np.log((1 + n_docs) / (1 + vocab.document_frequency(token))) + 1)
            for token in vocab.tokens
        }

    @property
    def dimension(self) -> int:
        """Output vector dimensionality."""
        assert self.model.vectors_ is not None
        return self.model.vectors_.shape[1]

    def transform_one(self, tokens: Sequence[str]) -> np.ndarray:
        """Document vector for one tokenized description (zeros if nothing
        in vocabulary)."""
        acc = np.zeros(self.dimension)
        total_weight = 0.0
        for token in tokens:
            if token not in self.model:
                continue
            weight = self._idf[token]
            acc += weight * self.model.vector(token)
            total_weight += weight
        if total_weight > 0:
            acc /= total_weight
        return acc

    def transform(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Stack of document vectors, shape ``(n_docs, dimension)``."""
        rows = [self.transform_one(doc) for doc in documents]
        return np.vstack(rows) if rows else np.zeros((0, self.dimension))
