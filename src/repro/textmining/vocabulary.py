"""Vocabulary: bidirectional token <-> index mapping with frequency stats."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence


class Vocabulary:
    """Frequency-ordered vocabulary built from tokenized documents.

    Tokens are assigned contiguous indices ``0..len-1`` in order of
    decreasing corpus frequency (ties broken lexicographically) so that
    truncation by ``max_size`` keeps the most frequent tokens and index
    assignment is deterministic.
    """

    def __init__(
        self,
        documents: Iterable[Sequence[str]],
        *,
        min_count: int = 1,
        max_size: int | None = None,
    ) -> None:
        counts: Counter[str] = Counter()
        n_docs = 0
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            n_docs += 1
            counts.update(doc)
            doc_freq.update(set(doc))
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if max_size is not None:
            ordered = ordered[:max_size]
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        self._counts: list[int] = []
        self._doc_freq: list[int] = []
        for token, count in ordered:
            if count < min_count:
                continue
            self._index[token] = len(self._tokens)
            self._tokens.append(token)
            self._counts.append(count)
            self._doc_freq.append(doc_freq[token])
        self.n_documents = n_docs

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def index(self, token: str) -> int:
        """Index of ``token``; raises KeyError if absent."""
        return self._index[token]

    def get(self, token: str, default: int = -1) -> int:
        """Index of ``token`` or ``default`` if absent."""
        return self._index.get(token, default)

    def token(self, index: int) -> str:
        """Token at ``index``."""
        return self._tokens[index]

    def document_frequency(self, token: str) -> int:
        """Number of documents containing ``token`` (0 if absent)."""
        i = self._index.get(token)
        return 0 if i is None else self._doc_freq[i]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Map tokens to indices, silently dropping out-of-vocabulary tokens."""
        return [self._index[t] for t in tokens if t in self._index]

    @property
    def tokens(self) -> list[str]:
        """All tokens in index order (copy)."""
        return list(self._tokens)

    @property
    def counts(self) -> list[int]:
        """Corpus frequencies aligned with :attr:`tokens` (copy)."""
        return list(self._counts)
