"""SS VII-B / Fig 14: topic uniqueness per bug category.

For a given taxonomy tag (e.g. symptom=byzantine), extract NMF topics from
the descriptions of bugs carrying the tag and from those that do not, then
measure what fraction of the tag's top topic terms never appear among the
complement's top terms.  High uniqueness means the category is identifiable
from keywords alone — the property the paper exploits for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.dataset import BugDataset
from repro.ml.nmf import NMF
from repro.textmining import TfidfVectorizer, Tokenizer


@dataclass(frozen=True)
class TopicUniqueness:
    """Uniqueness result for one category tag."""

    dimension: str
    tag: str
    unique_share: float
    top_terms: tuple[str, ...]
    overlapping_terms: tuple[str, ...]


#: NMF topics extracted per side of a tag.
_N_TOPICS = 4
#: Top terms kept per topic.
_TERMS_PER_TOPIC = 8


def _top_topic_terms(texts: list[str]) -> list[str]:
    tokenizer = Tokenizer()
    docs = tokenizer.tokenize_all(texts)
    vectorizer = TfidfVectorizer(min_count=2)
    matrix = vectorizer.fit_transform(docs)
    if matrix.shape[1] == 0:
        return []
    nmf = NMF(n_components=min(_N_TOPICS, matrix.shape[0]))
    nmf.fit(matrix)
    terms: list[str] = []
    for topic in nmf.top_terms(vectorizer.feature_names, _TERMS_PER_TOPIC):
        terms.extend(topic)
    # Deduplicate, preserving order.
    seen: set[str] = set()
    unique: list[str] = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            unique.append(term)
    return unique


def topic_uniqueness(
    dataset: BugDataset,
    dimension: str,
    tag: str,
) -> TopicUniqueness:
    """Measure the topic uniqueness of one category tag (Fig 14)."""
    values = dataset.labels(dimension)
    in_texts = [
        bug.report.text for bug, value in zip(dataset, values) if value == tag
    ]
    out_texts = [
        bug.report.text for bug, value in zip(dataset, values) if value != tag
    ]
    if not in_texts:
        raise ValueError(f"no bugs carry {dimension}={tag}")
    if not out_texts:
        raise ValueError(f"all bugs carry {dimension}={tag}; uniqueness undefined")
    in_terms = _top_topic_terms(in_texts)
    out_terms = set(_top_topic_terms(out_texts))
    unique = [t for t in in_terms if t not in out_terms]
    overlapping = [t for t in in_terms if t in out_terms]
    share = len(unique) / len(in_terms) if in_terms else 0.0
    return TopicUniqueness(
        dimension=dimension,
        tag=tag,
        unique_share=share,
        top_terms=tuple(in_terms),
        overlapping_terms=tuple(overlapping),
    )


def uniqueness_ranking(
    dataset: BugDataset, pairs: list[tuple[str, str]]
) -> list[TopicUniqueness]:
    """Fig 14: uniqueness for a list of ``(dimension, tag)`` pairs, sorted
    most-unique first."""
    results = [topic_uniqueness(dataset, dim, tag) for dim, tag in pairs]
    return sorted(results, key=lambda r: -r.unique_share)
