"""The bug autoclassifier: text -> Euclidean vector -> taxonomy tag.

Mirrors SS II-C:

1. tokenize + TF-IDF features (NMF is available for keyword extraction);
2. optionally train Word2Vec on the corpus and embed each bug description
   (IDF-weighted average of word vectors);
3. train a classic ML classifier.  The paper found "SVM with normalization"
   the most accurate — here that is a linear SVM over L2-normalized TF-IDF
   rows (plus the normalized embedding block).  Decision Tree, AdaBoost and
   Naive Bayes are available for the comparison experiments, and a PCA
   projection of the TF-IDF block can be enabled to reproduce the paper's
   PCA variant.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.embeddings import DocumentVectorizer, Word2Vec
from repro.embeddings.word2vec import train_together
from repro.errors import NotFittedError
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.naive_bayes import GaussianNB
from repro.ml.pca import PCA
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier
from repro.textmining import TfidfVectorizer, Tokenizer


class ClassifierKind(enum.Enum):
    """Classifier families explored in the paper's validation."""

    SVM = "svm"
    DECISION_TREE = "decision_tree"
    ADABOOST = "adaboost"
    NAIVE_BAYES = "naive_bayes"


#: What each classifier family is built with, besides its seed and workers.
_CLASSIFIER_PARAMS = {
    ClassifierKind.SVM: {"regularization": 1e-3, "epochs": 40, "class_weight": "balanced"},
    ClassifierKind.DECISION_TREE: {"max_depth": 12, "min_samples_leaf": 2},
    ClassifierKind.ADABOOST: {"n_estimators": 80},
    ClassifierKind.NAIVE_BAYES: {},
}
#: The TF-IDF block's vectorizer settings.
_TFIDF_PARAMS = {"min_count": 2}
#: The embedding block's Word2Vec settings, besides its size and epochs.
_WORD2VEC_PARAMS = {"window": 4, "negative": 5, "learning_rate": 0.025, "min_count": 2}


def _make_classifier(kind: ClassifierKind, params: dict, seed: int, n_jobs: int = 1):
    if kind is ClassifierKind.SVM:
        return LinearSVM(**params, seed=seed, n_jobs=n_jobs)
    if kind is ClassifierKind.DECISION_TREE:
        return DecisionTreeClassifier(**params)
    if kind is ClassifierKind.ADABOOST:
        return AdaBoostClassifier(**params)
    if kind is ClassifierKind.NAIVE_BAYES:
        return GaussianNB(**params)
    raise ValueError(f"unknown classifier kind {kind!r}")


def _l2_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


class AutoClassifier:
    """Text classifier for one taxonomy dimension.

    Parameters
    ----------
    kind:
        Classifier family (default: SVM, the paper's best).
    use_embeddings:
        Append a Word2Vec document-vector block to the TF-IDF features.
    pca_dim:
        If set, replace the raw TF-IDF block with its ``pca_dim``-component
        PCA projection (the paper's PCA variant; hurts accuracy on small
        training sets, which is why the paper settled on SVM+normalization).
    seed:
        Controls Word2Vec init/shuffling and SVM shuffling.
    n_jobs:
        Workers for the SVM's per-class one-vs-rest training (other
        classifier kinds train serially).  Results are independent of
        ``n_jobs`` bit-for-bit.
    """

    #: Word2Vec hyper-parameters for the embedding block.
    embedding_dim = 48
    word2vec_epochs = 3

    def __init__(
        self,
        *,
        kind: ClassifierKind = ClassifierKind.SVM,
        use_embeddings: bool = True,
        pca_dim: int | None = None,
        seed: int = 0,
        n_jobs: int = 1,
    ) -> None:
        self.kind = kind
        self.use_embeddings = use_embeddings
        self.pca_dim = pca_dim
        self.seed = seed
        self.n_jobs = n_jobs
        self.tokenizer = Tokenizer()
        self._tfidf: TfidfVectorizer | None = None
        self._pca: PCA | None = None
        self._word2vec: Word2Vec | None = None
        self._docvec: DocumentVectorizer | None = None
        self._classifier = None

    def hyperparameters(self) -> dict:
        """Every setting that decides what :meth:`fit` learns, except the seed.

        ``fit`` builds its vectorizer, Word2Vec and classifier from this
        mapping, and cache keys and run-config digests are built from it
        too, so a changed setting can never be served from a stale cache
        entry or a resumed journal.  ``n_jobs`` is absent: results do not
        depend on it.
        """
        return {
            "kind": self.kind.value,
            "classifier": dict(_CLASSIFIER_PARAMS[self.kind]),
            "tfidf": dict(_TFIDF_PARAMS),
            "pca_dim": self.pca_dim,
            "word2vec": {
                "vector_size": self.embedding_dim,
                "epochs": self.word2vec_epochs,
                **_WORD2VEC_PARAMS,
            } if self.use_embeddings else None,
        }

    def _embedding_model(self) -> Word2Vec | None:
        """The untrained Word2Vec of the embedding block, if there is one."""
        if not self.use_embeddings:
            return None
        return Word2Vec(**self.hyperparameters()["word2vec"], seed=self.seed)

    # -- feature construction -------------------------------------------------
    def _featurize(self, token_docs: list[list[str]], *, fit: bool) -> np.ndarray:
        params = self.hyperparameters()
        if fit:
            self._tfidf = TfidfVectorizer(**params["tfidf"])
            tfidf_block = self._tfidf.fit_transform(token_docs)
            if self.pca_dim is not None:
                self._pca = PCA(n_components=self.pca_dim)
                tfidf_block = _l2_rows(self._pca.fit_transform(tfidf_block))
        else:
            if self._tfidf is None:
                raise NotFittedError("AutoClassifier used before fit")
            tfidf_block = self._tfidf.transform(token_docs)
            if self._pca is not None:
                tfidf_block = _l2_rows(self._pca.transform(tfidf_block))
        blocks = [tfidf_block]
        if self.use_embeddings:
            if fit:
                self._docvec = DocumentVectorizer(self._word2vec)
            if self._docvec is None:
                raise NotFittedError("AutoClassifier used before fit")
            blocks.append(_l2_rows(self._docvec.transform(token_docs)))
        return np.hstack(blocks)

    # -- training / prediction --------------------------------------------------
    def _fit_trained(
        self, token_docs: list[list[str]], labels: Sequence[str], word2vec: Word2Vec | None
    ) -> None:
        """Fit TF-IDF, document vectors and the classifier over a trained
        ``word2vec`` (``None`` without embeddings)."""
        self._word2vec = word2vec
        features = self._featurize(token_docs, fit=True)
        self._classifier = _make_classifier(
            self.kind, self.hyperparameters()["classifier"], self.seed, self.n_jobs
        )
        self._classifier.fit(features, list(labels))

    def fit(self, texts: Sequence[str], labels: Sequence[str]) -> "AutoClassifier":
        """Train end-to-end on raw bug texts and their dimension tags."""
        if len(texts) != len(labels):
            raise ValueError("texts and labels have different lengths")
        token_docs = self.tokenizer.tokenize_all(texts)
        word2vec = self._embedding_model()
        if word2vec is not None:
            word2vec.fit(token_docs)
        self._fit_trained(token_docs, labels, word2vec)
        return self

    def predict(self, texts: Sequence[str]) -> list[str]:
        """Predict the dimension tag for each raw text."""
        if self._classifier is None:
            raise NotFittedError("AutoClassifier.predict called before fit")
        token_docs = self.tokenizer.tokenize_all(texts)
        features = self._featurize(token_docs, fit=False)
        return self._classifier.predict(features)


def fit_together(
    classifiers: Sequence[AutoClassifier],
    texts: Sequence[Sequence[str]],
    labels: Sequence[Sequence[str]],
) -> None:
    """Fit ``classifiers[i]`` on ``texts[i]`` and ``labels[i]``, as its own
    :meth:`AutoClassifier.fit` would.

    Every text is tokenized first and the classifiers' Word2Vec models
    train in lockstep (:func:`~repro.embeddings.word2vec.train_together`);
    then TF-IDF, document vectors and the classifier are fit one classifier
    at a time, so only one classifier's feature matrix is alive at once.
    """
    if len(classifiers) != len(texts) or len(texts) != len(labels):
        raise ValueError("fit_together needs texts and labels per classifier")
    if any(len(t) != len(y) for t, y in zip(texts, labels)):
        raise ValueError("texts and labels have different lengths")
    token_docs = [c.tokenizer.tokenize_all(t) for c, t in zip(classifiers, texts)]
    models = [c._embedding_model() for c in classifiers]
    embedded = [i for i, model in enumerate(models) if model is not None]
    train_together([models[i] for i in embedded], [token_docs[i] for i in embedded])
    for classifier, docs, y, model in zip(classifiers, token_docs, labels, models):
        classifier._fit_trained(docs, y, model)
