"""Tokenizer, Porter stemmer, vocabulary, and TF-IDF."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NotFittedError
from repro.textmining import (
    ENGLISH_STOPWORDS,
    PorterStemmer,
    TfidfVectorizer,
    Tokenizer,
    Vocabulary,
    sliding_windows,
    tokenizer,
)
from repro.textmining.tokenizer import split_identifier


class TestStemmer:
    @pytest.mark.parametrize(
        "word,stem",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubling", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("happy", "happi"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("triplicate", "triplic"),
            ("hopefulness", "hope"),
            ("goodness", "good"),
            ("formative", "form"),
            ("probate", "probat"),
            ("cease", "ceas"),
            ("controller", "control"),
            ("crashes", "crash"),
            ("crashed", "crash"),
            ("crashing", "crash"),
        ],
    )
    def test_known_stems(self, word, stem):
        assert PorterStemmer().stem(word) == stem

    def test_short_words_untouched(self):
        stemmer = PorterStemmer()
        assert stemmer.stem("at") == "at"
        assert stemmer.stem("of") == "of"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_stem_is_idempotent_on_its_output_prefix_property(self, word):
        """A stem never grows, and stemming never raises."""
        stemmer = PorterStemmer()
        stem = stemmer.stem(word)
        assert len(stem) <= len(word)
        assert stem == stem.lower()

    def test_inflections_share_a_stem(self):
        stemmer = PorterStemmer()
        stems = {stemmer.stem(w) for w in ("crash", "crashed", "crashes", "crashing")}
        assert len(stems) == 1


class TestTokenizer:
    def test_camel_case_split(self):
        assert split_identifier("NullPointerException") == [
            "null", "pointer", "exception",
        ]

    def test_snake_case_split(self):
        assert split_identifier("flow_mod_handler") == ["flow", "mod", "handler"]

    def test_acronym_handling(self):
        assert split_identifier("HTTPServer") == ["http", "server"]

    def test_stopwords_removed(self):
        tokens = Tokenizer().tokenize("the controller is in the rack")
        assert "the" not in tokens and "control" in tokens

    def test_stemming_applied(self):
        tokens = Tokenizer().tokenize("controllers crashing repeatedly")
        assert "control" in tokens and "crash" in tokens

    def test_min_length_filter(self):
        assert Tokenizer().tokenize("a x ip") == ["ip"]

    @pytest.mark.parametrize("text, tokens", [
        ("controllers crashing repeatedly", ["control", "crash", "repeatedli"]),
        ("The FlowMod handler is in", ["flow", "mod", "handler"]),
        ("OFPT_PACKET_IN storms", ["ofpt", "packet", "storm"]),
        ("as is it", []),
        # "ies" and "ied" stem to "i", shorter than the minimum: dropped
        # after stemming; "ss" passes both checks.
        ("ies ss ied", ["ss"]),
    ])
    def test_split_filter_stem_in_order(self, text, tokens):
        assert Tokenizer().tokenize(text) == tokens

    def test_numbers_in_identifiers_kept(self):
        tokens = Tokenizer().tokenize("ipv6 route")
        assert "ipv6" in tokens

    @given(st.text(max_size=200))
    def test_never_raises_and_all_tokens_nonempty(self, text):
        tokens = Tokenizer().tokenize(text)
        assert all(tokens), "empty token produced"

    def test_memoised_stems_match_the_stemmer(self, dataset, monkeypatch):
        texts = dataset.texts()
        memoised = Tokenizer().tokenize_all(texts)
        assert tokenizer._stem.cache_info().hits > 0
        monkeypatch.setattr(tokenizer, "_stem", PorterStemmer().stem)
        assert Tokenizer().tokenize_all(texts) == memoised

    def test_stem_memo_is_bounded(self):
        assert tokenizer._stem.cache_info().maxsize == tokenizer.STEM_MEMO_SIZE


class TestSlidingWindows:
    def test_sliding_windows_cover_context(self):
        pairs = dict()
        for center, context in sliding_windows(["a", "b", "c"], 1):
            pairs[center] = context
        assert pairs == {"a": ["b"], "b": ["a", "c"], "c": ["b"]}

    def test_sliding_windows_rejects_zero(self):
        with pytest.raises(ValueError):
            list(sliding_windows(["a"], 0))


class TestVocabulary:
    DOCS = [["flow", "table", "flow"], ["flow", "crash"], ["crash"]]

    def test_frequency_ordering(self):
        vocab = Vocabulary(self.DOCS)
        assert vocab.index("flow") == 0  # most frequent

    def test_counts_and_docfreq(self):
        vocab = Vocabulary(self.DOCS)
        assert vocab.counts[vocab.index("flow")] == 3
        assert vocab.document_frequency("flow") == 2
        assert vocab.document_frequency("crash") == 2

    def test_min_count_filters(self):
        vocab = Vocabulary(self.DOCS, min_count=2)
        assert "table" not in vocab

    def test_max_size_truncates_to_most_frequent(self):
        vocab = Vocabulary(self.DOCS, max_size=1)
        assert list(vocab) == ["flow"]

    def test_encode_drops_oov(self):
        vocab = Vocabulary(self.DOCS, min_count=2)
        assert vocab.encode(["flow", "table", "crash"]) == [
            vocab.index("flow"), vocab.index("crash"),
        ]

    def test_token_index_roundtrip(self):
        vocab = Vocabulary(self.DOCS)
        for token in vocab:
            assert vocab.token(vocab.index(token)) == token

    @given(
        st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    def test_counts_sum_to_total_tokens(self, docs):
        vocab = Vocabulary(docs)
        assert sum(vocab.counts) == sum(len(d) for d in docs)


class TestTfidf:
    DOCS = [["flow", "crash"], ["flow", "table"], ["flow"]]

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().transform(self.DOCS)

    def test_feature_names_label_the_columns(self):
        vectorizer = TfidfVectorizer(normalize=False)
        with pytest.raises(NotFittedError):
            vectorizer.feature_names
        matrix = vectorizer.fit_transform(self.DOCS)
        names = vectorizer.feature_names
        assert sorted(names) == ["crash", "flow", "table"]
        # Only the first document contains "crash": its column is nonzero there alone.
        column = matrix[:, names.index("crash")]
        assert column[0] > 0 and not column[1:].any()

    def test_shape(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS)
        assert matrix.shape == (3, 3)

    def test_rows_l2_normalized(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms, 1.0)

    def test_ubiquitous_term_weighs_less(self):
        vectorizer = TfidfVectorizer(normalize=False)
        matrix = vectorizer.fit_transform(self.DOCS)
        flow_col = vectorizer.vocabulary_.index("flow")
        crash_col = vectorizer.vocabulary_.index("crash")
        # In doc 0 both terms appear once; 'crash' is rarer so scores higher.
        assert matrix[0, crash_col] > matrix[0, flow_col]

    def test_oov_terms_ignored_at_transform(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        row = vectorizer.transform([["unseen", "flow"]])
        assert row.shape == (1, 3)
        assert row.sum() > 0

    def test_empty_doc_is_zero_row(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        row = vectorizer.transform([[]])
        assert np.allclose(row, 0.0)

    def test_empty_document_list_transforms_to_empty_matrix(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        matrix = vectorizer.transform([])
        assert matrix.shape == (0, 3)

    def test_all_stopword_input_yields_zero_rows(self):
        # The tokenizer drops stopwords, so an all-stopword report reaches
        # the vectorizer as empty token lists: every row must be all-zero,
        # and normalization must not divide by the zero norm.
        tokenizer = Tokenizer()
        docs = [
            tokenizer.tokenize("the and of was"),
            tokenizer.tokenize("is are been being"),
        ]
        assert docs == [[], []]
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        matrix = vectorizer.transform(docs)
        assert matrix.shape == (2, 3)
        assert np.all(matrix == 0.0)
        assert np.isfinite(matrix).all()

    def test_pool_sharded_transform_matches_serial(self):
        from repro.parallel import WorkPool

        docs = [["flow", "crash"], ["table"], ["flow"], [], ["crash", "table"]]
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        serial = vectorizer.transform(docs)
        sharded = vectorizer.transform(docs, pool=WorkPool(3))
        assert np.array_equal(serial, sharded)

    def test_sublinear_tf_dampens(self):
        plain = TfidfVectorizer(normalize=False).fit_transform([["a", "a", "a", "b"]])
        sub = TfidfVectorizer(normalize=False, sublinear_tf=True).fit_transform(
            [["a", "a", "a", "b"]]
        )
        assert sub[0].max() < plain[0].max()

    @given(
        st.lists(
            st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=6),
            min_size=2,
            max_size=8,
        )
    )
    def test_all_entries_nonnegative(self, docs):
        matrix = TfidfVectorizer().fit_transform(docs)
        assert (matrix >= 0).all()
