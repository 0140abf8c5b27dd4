"""From-scratch machine-learning algorithms used by the pipeline (SS II-C).

The paper explores SVM, Decision Tree, PCA, and AdaBoost on TF-IDF /
Word2Vec features, plus NMF for keyword extraction.  The offline environment
has no scikit-learn, so each algorithm is implemented here on numpy.
"""

from repro.ml.boosting import AdaBoostClassifier, DecisionStump
from repro.ml.lda import LDA
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import accuracy_score, confusion_matrix, precision_recall_f1
from repro.ml.model_selection import train_test_split
from repro.ml.naive_bayes import GaussianNB
from repro.ml.nmf import NMF, MultiRestartResult, nmf_multi_restart
from repro.ml.pca import PCA
from repro.ml.preprocessing import LabelEncoder
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "AdaBoostClassifier",
    "DecisionStump",
    "LDA",
    "LogisticRegression",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "train_test_split",
    "GaussianNB",
    "NMF",
    "MultiRestartResult",
    "nmf_multi_restart",
    "PCA",
    "LabelEncoder",
    "LinearSVM",
    "DecisionTreeClassifier",
]
