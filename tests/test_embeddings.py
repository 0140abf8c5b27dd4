"""Word2Vec skip-gram training and document vectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import DocumentVectorizer, Word2Vec, word2vec
from repro.errors import NotFittedError
from repro.textmining import Tokenizer, Vocabulary, sliding_windows

#: A tiny corpus with two clearly separated topics: animals vs networking.
CORPUS = [
    ["cat", "dog", "pet", "fur"],
    ["dog", "cat", "pet", "paw"],
    ["pet", "cat", "fur", "paw"],
    ["dog", "pet", "paw", "fur"],
    ["switch", "flow", "packet", "port"],
    ["flow", "switch", "port", "packet"],
    ["packet", "port", "switch", "flow"],
    ["port", "flow", "packet", "switch"],
] * 12


def per_pair_fit(
    documents,
    *,
    vector_size=64,
    window=4,
    negative=5,
    epochs=5,
    learning_rate=0.025,
    min_count=2,
    seed=0,
):
    """The reference: one SGD step per (center, context) pair, in order.

    Returns the trained ``(vectors, output)``.  ``Word2Vec.fit`` must give
    the same bytes.
    """
    vocab = Vocabulary(documents, min_count=min_count)
    rng = np.random.default_rng(seed)
    n = len(vocab)
    vectors = (rng.random((n, vector_size)) - 0.5) / vector_size
    output = np.zeros((n, vector_size))
    noise = np.array(vocab.counts, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    pairs = [
        (center, ctx)
        for doc in documents
        for center, context in sliding_windows(vocab.encode(doc), window)
        for ctx in context
    ]
    pair_array = np.array(pairs, dtype=np.int64)
    total_steps = epochs * len(pair_array)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(pair_array))
        negatives = rng.choice(n, size=(len(pair_array), negative), p=noise)
        for row, i in enumerate(order):
            center, ctx = pair_array[i]
            lr = learning_rate * max(0.1, 1.0 - step / max(total_steps, 1))
            step += 1
            v = vectors[center]
            targets = np.concatenate(([ctx], negatives[row]))
            labels = np.zeros(len(targets))
            labels[0] = 1.0
            out = output[targets]
            scores = 1.0 / (1.0 + np.exp(-np.clip(out @ v, -30.0, 30.0)))
            gradient = (scores - labels)[:, None]
            v_grad = (gradient * out).sum(axis=0)
            output[targets] -= lr * gradient * v
            vectors[center] -= lr * v_grad
    return vectors, output


def assert_matches_per_pair(documents, **params):
    model = Word2Vec(**params).fit(documents)
    vectors, output = per_pair_fit(documents, **params)
    assert model.vectors_.tobytes() == vectors.tobytes()
    assert model._output.tobytes() == output.tobytes()


def assert_lockstep_matches_per_pair(runs):
    """``runs`` is ``(documents, params)`` per model; one lockstep run must
    leave every model with the bytes of its own per-pair fit."""
    models = [Word2Vec(**params) for _, params in runs]
    word2vec.train_together(models, [documents for documents, _ in runs])
    for model, (documents, params) in zip(models, runs):
        vectors, output = per_pair_fit(documents, **params)
        assert model.vectors_.tobytes() == vectors.tobytes()
        assert model._output.tobytes() == output.tobytes()


def n_blocks(documents, *, window, epochs, min_count=1):
    """Blocks a model trains: its rounds in a lockstep run."""
    vocab = Vocabulary(documents, min_count=min_count)
    pairs = sum(len(ctx) for doc in documents
                for _, ctx in sliding_windows(vocab.encode(doc), window))
    return epochs * -(-pairs // word2vec.SCHEDULE_BLOCK)


@pytest.fixture(scope="module")
def model() -> Word2Vec:
    return Word2Vec(vector_size=24, window=3, epochs=4, min_count=1, seed=0).fit(
        CORPUS
    )


class TestWord2Vec:
    def test_vector_shape(self, model):
        assert model.vector("cat").shape == (24,)

    def test_topic_words_cluster(self, model):
        """Intra-topic similarity must exceed cross-topic similarity."""
        def cosine(a, b):
            va, vb = model.vector(a), model.vector(b)
            return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

        assert cosine("cat", "dog") > cosine("cat", "switch")

    @pytest.mark.parametrize(
        ("query", "topic"),
        [("flow", {"switch", "packet", "port"}), ("cat", {"dog", "pet", "fur", "paw"})],
        ids=["flow", "cat"],
    )
    def test_nearest_neighbours_share_the_topic(self, model, query, topic):
        unit = model.vectors_ / np.linalg.norm(model.vectors_, axis=1, keepdims=True)
        tokens = model.vocabulary_.tokens
        scores = unit @ model.vector(query) / np.linalg.norm(model.vector(query))
        ranked = [tokens[i] for i in np.argsort(-scores) if tokens[i] != query]
        assert set(ranked[:3]) <= topic

    def test_contains(self, model):
        assert "cat" in model
        assert "unseen" not in model

    def test_oov_vector_raises(self, model):
        with pytest.raises(KeyError):
            model.vector("unseen")

    def test_deterministic_for_seed(self):
        a = Word2Vec(vector_size=8, epochs=1, min_count=1, seed=5).fit(CORPUS)
        b = Word2Vec(vector_size=8, epochs=1, min_count=1, seed=5).fit(CORPUS)
        assert a.vectors_.tobytes() == b.vectors_.tobytes()
        assert a._output.tobytes() == b._output.tobytes()

    def test_min_count_prunes(self):
        docs = CORPUS + [["rareword"]]
        model = Word2Vec(vector_size=8, epochs=1, min_count=2, seed=0).fit(docs)
        assert "rareword" not in model

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            Word2Vec().vector("cat")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Word2Vec(min_count=1).fit([[]])


class TestScheduledTrainingIsExact:
    """``fit`` batches conflict-free steps; the bytes must not change."""

    def test_autoclassifier_config_on_manual_sample(self, manual_sample):
        docs = Tokenizer().tokenize_all(manual_sample.texts()[:60])
        assert_matches_per_pair(docs, vector_size=48, epochs=3, min_count=2, seed=0)

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_epochs_longer_than_a_block(self, monkeypatch, block):
        monkeypatch.setattr(word2vec, "SCHEDULE_BLOCK", block)
        pairs = sum(len(ctx) for doc in CORPUS for _, ctx in sliding_windows(doc, 3))
        assert pairs > 2 * block
        assert_matches_per_pair(CORPUS, vector_size=8, window=3, epochs=2,
                                min_count=1, seed=3)

    def test_tiny_vocabulary_with_many_negatives(self):
        # Every step draws 15 noise words from 3: targets repeat within a
        # step and noise words equal the context.
        docs = [["flow", "rule", "port"], ["port", "flow", "rule", "flow"]] * 5
        assert_matches_per_pair(docs, vector_size=6, window=2, negative=15,
                                epochs=3, min_count=1, seed=1)

    def test_window_one(self):
        assert_matches_per_pair(CORPUS, vector_size=12, window=1, epochs=2,
                                min_count=1, seed=2)

    def test_min_count_pruning(self):
        docs = CORPUS + [["rareword", "cat", "otherrare", "flow"]]
        assert "rareword" not in Vocabulary(docs, min_count=2)
        assert_matches_per_pair(docs, vector_size=8, epochs=1, min_count=2, seed=4)

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_lockstep_models_finishing_in_different_rounds(self, monkeypatch, block):
        monkeypatch.setattr(word2vec, "SCHEDULE_BLOCK", block)
        animals = [doc for doc in CORPUS if "pet" in doc][:30]
        network = [doc for doc in CORPUS if "flow" in doc][:10]
        runs = [
            (CORPUS, dict(vector_size=8, window=3, epochs=2, min_count=1, seed=3)),
            (animals + [["rareword", "cat"]],
             dict(vector_size=8, window=2, epochs=3, learning_rate=0.05,
                  min_count=2, seed=4)),
            (network, dict(vector_size=8, window=1, epochs=1, min_count=1, seed=5)),
        ]
        vocabularies = [len(Vocabulary(docs, min_count=p["min_count"])) for docs, p in runs]
        rounds = [n_blocks(docs, window=p["window"], epochs=p["epochs"],
                           min_count=p["min_count"]) for docs, p in runs]
        assert len(set(vocabularies)) == 3 and len(set(rounds)) == 3
        assert_lockstep_matches_per_pair(runs)

    def test_lockstep_autoclassifier_config_on_manual_sample(self, manual_sample):
        texts = manual_sample.texts()
        params = dict(vector_size=48, epochs=3, min_count=2)
        assert_lockstep_matches_per_pair([
            (Tokenizer().tokenize_all(texts[lo:hi]), dict(params, seed=seed))
            for lo, hi, seed in [(0, 30, 0), (30, 70, 1), (70, 90, 2)]
        ])

    def test_lockstep_tiny_vocabulary_with_many_negatives(self):
        docs = [["flow", "rule", "port"], ["port", "flow", "rule", "flow"]] * 5
        params = dict(vector_size=6, negative=15, min_count=1)
        assert_lockstep_matches_per_pair([
            (docs, dict(params, window=2, epochs=3, seed=1)),
            (CORPUS[:12], dict(params, window=3, epochs=2, seed=2)),
        ])

    def test_lockstep_of_one_model(self):
        assert_lockstep_matches_per_pair(
            [(CORPUS, dict(vector_size=12, window=2, epochs=2, min_count=1, seed=6))]
        )

    @pytest.mark.parametrize("field, value", [("vector_size", 9), ("negative", 4)])
    def test_lockstep_refuses_models_of_different_shapes(self, field, value):
        models = [Word2Vec(vector_size=8, min_count=1),
                  Word2Vec(**{"vector_size": 8, "min_count": 1, field: value})]
        with pytest.raises(ValueError, match="vector_size and negative"):
            word2vec.train_together(models, [CORPUS, CORPUS])
        assert all(model.vectors_ is None for model in models)

    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=9),
            min_size=1, max_size=8,
        ),
        window=st.integers(1, 3),
        negative=st.integers(0, 6),
        vector_size=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_corpora(self, docs, window, negative, vector_size, seed):
        assert_matches_per_pair(docs, vector_size=vector_size, window=window,
                                negative=negative, epochs=2, min_count=1, seed=seed)


class TestDocumentVectorizer:
    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            DocumentVectorizer(Word2Vec())

    def test_doc_vector_shape(self, model):
        docvec = DocumentVectorizer(model)
        matrix = docvec.transform([["cat", "dog"], ["switch"]])
        assert matrix.shape == (2, 24)

    def test_no_documents_is_an_empty_matrix(self, model):
        assert DocumentVectorizer(model).transform([]).shape == (0, 24)

    def test_oov_only_doc_is_zero(self, model):
        docvec = DocumentVectorizer(model)
        assert np.allclose(docvec.transform_one(["nothing", "known"]), 0.0)

    def test_topic_docs_separate(self, model):
        docvec = DocumentVectorizer(model)
        animal = docvec.transform_one(["cat", "dog", "pet"])
        network = docvec.transform_one(["switch", "flow", "port"])
        animal2 = docvec.transform_one(["fur", "paw", "pet"])

        def cosine(u, v):
            return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))

        assert cosine(animal, animal2) > cosine(animal, network)

    def test_average_is_idf_weighted_mean(self, model):
        docvec = DocumentVectorizer(model)
        vec = docvec.transform_one(["cat", "dog"])
        weights = {token: docvec._idf[token] for token in ("cat", "dog")}
        expected = sum(w * model.vector(t) for t, w in weights.items()) / sum(
            weights.values()
        )
        assert np.allclose(vec, expected)
