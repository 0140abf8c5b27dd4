"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

SS II-C mentions LDA and HDP as the classic alternatives to the NMF/TF-IDF
keyword extraction the paper adopts.  This implementation exists for the
ablation that justifies that choice (see ``bench_topic_models.py``): on
short, keyword-dense bug reports, NMF topics are sharper and two orders of
magnitude faster to fit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError


class LDA:
    """Collapsed-Gibbs LDA over bag-of-words count matrices.

    Parameters
    ----------
    n_topics:
        Number of latent topics.
    n_iterations:
        Gibbs sweeps over the corpus.
    seed:
        Sampling seed (deterministic given it).
    """

    #: Symmetric Dirichlet priors for the document-topic and topic-word
    #: distributions.
    alpha = 0.1
    beta = 0.01

    def __init__(
        self,
        n_topics: int,
        *,
        n_iterations: int = 100,
        seed: int = 0,
    ) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        self.n_topics = n_topics
        self.n_iterations = n_iterations
        self.seed = seed
        self.topic_word_: np.ndarray | None = None  # (n_topics, n_terms)
        self.doc_topic_: np.ndarray | None = None  # (n_docs, n_topics)

    def fit(self, counts: np.ndarray) -> "LDA":
        """Fit on a ``(n_docs, n_terms)`` non-negative integer count matrix."""
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        n_docs, n_terms = counts.shape
        rng = np.random.default_rng(self.seed)

        # Unroll documents into (doc, term) token instances.
        doc_ids: list[int] = []
        term_ids: list[int] = []
        for d in range(n_docs):
            for t in np.nonzero(counts[d])[0]:
                repeat = int(counts[d, t])
                doc_ids.extend([d] * repeat)
                term_ids.extend([t] * repeat)
        doc_ids_arr = np.array(doc_ids, dtype=np.int64)
        term_ids_arr = np.array(term_ids, dtype=np.int64)
        n_tokens = len(doc_ids_arr)
        if n_tokens == 0:
            raise ValueError("empty corpus")

        assignments = rng.integers(0, self.n_topics, size=n_tokens)
        doc_topic = np.zeros((n_docs, self.n_topics), dtype=np.int64)
        topic_word = np.zeros((self.n_topics, n_terms), dtype=np.int64)
        topic_total = np.zeros(self.n_topics, dtype=np.int64)
        for i in range(n_tokens):
            z = assignments[i]
            doc_topic[doc_ids_arr[i], z] += 1
            topic_word[z, term_ids_arr[i]] += 1
            topic_total[z] += 1

        beta_sum = self.beta * n_terms
        for _ in range(self.n_iterations):
            for i in range(n_tokens):
                d, t, z = doc_ids_arr[i], term_ids_arr[i], assignments[i]
                doc_topic[d, z] -= 1
                topic_word[z, t] -= 1
                topic_total[z] -= 1
                weights = (
                    (doc_topic[d] + self.alpha)
                    * (topic_word[:, t] + self.beta)
                    / (topic_total + beta_sum)
                )
                weights = weights / weights.sum()
                z_new = rng.choice(self.n_topics, p=weights)
                assignments[i] = z_new
                doc_topic[d, z_new] += 1
                topic_word[z_new, t] += 1
                topic_total[z_new] += 1

        self.topic_word_ = (topic_word + self.beta) / (
            topic_total[:, None] + beta_sum
        )
        self.doc_topic_ = (doc_topic + self.alpha) / (
            doc_topic.sum(axis=1, keepdims=True) + self.alpha * self.n_topics
        )
        return self

    def top_terms(self, feature_names: list[str], n_terms: int = 10) -> list[list[str]]:
        """For each topic, the ``n_terms`` highest-probability terms."""
        if self.topic_word_ is None:
            raise NotFittedError("LDA.top_terms called before fit")
        topics = []
        for row in self.topic_word_:
            order = np.argsort(row)[::-1][:n_terms]
            topics.append([feature_names[i] for i in order])
        return topics
