"""Tokenization for issue-tracker text.

Bug descriptions mix prose with identifiers (``NullPointerException``),
file paths, stack traces, and version strings.  The tokenizer keeps
alphanumeric identifier tokens, splits camelCase, lowercases, and can apply
stop-word removal and Porter stemming.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator, Sequence

from repro.textmining.stemmer import PorterStemmer
from repro.textmining.stopwords import ENGLISH_STOPWORDS

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+")

#: Words whose stems are remembered, shared by every tokenizer.  Bounded so a
#: long-running ``repro serve`` cannot grow it without limit.
STEM_MEMO_SIZE = 1 << 14
_STEMMER = PorterStemmer()


@functools.lru_cache(maxsize=STEM_MEMO_SIZE)
def _stem(word: str) -> str:
    # Stemming is a pure function of the word, and bug text repeats words.
    return _STEMMER.stem(word)


def split_identifier(token: str) -> list[str]:
    """Split a camelCase / snake_case identifier into lowercase parts.

    >>> split_identifier("NullPointerException")
    ['null', 'pointer', 'exception']
    >>> split_identifier("flow_mod")
    ['flow', 'mod']
    """
    parts: list[str] = []
    for chunk in token.split("_"):
        parts.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(chunk))
    return parts


class Tokenizer:
    """Text -> token-list transformer.

    Identifiers are split into their camelCase / snake_case parts, and
    every part is lowercased.  Tokens shorter than ``min_length``
    characters and tokens in :data:`ENGLISH_STOPWORDS` are dropped, and the
    rest are Porter-stemmed (a stem shorter than ``min_length`` is dropped
    too).
    """

    #: Shortest token kept, before and after stemming.
    min_length = 2

    def tokenize(self, text: str) -> list[str]:
        """Tokenize ``text``."""
        tokens: list[str] = []
        for match in _WORD_RE.finditer(text):
            for part in split_identifier(match.group(0)):
                token = part.lower()
                if len(token) < self.min_length or token in ENGLISH_STOPWORDS:
                    continue
                token = _stem(token)
                if len(token) < self.min_length:
                    continue
                tokens.append(token)
        return tokens

    def tokenize_all(self, texts: Iterable[str]) -> list[list[str]]:
        """Tokenize a corpus of documents."""
        return [self.tokenize(text) for text in texts]


def sliding_windows(
    tokens: Sequence[str], window: int
) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(center, context)`` pairs for skip-gram training.

    ``context`` holds up to ``window`` tokens on each side of ``center``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    for i, center in enumerate(tokens):
        lo = max(0, i - window)
        context = list(tokens[lo:i]) + list(tokens[i + 1 : i + 1 + window])
        yield center, context
