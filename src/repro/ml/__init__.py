"""From-scratch machine-learning algorithms used by the pipeline (SS II-C).

The paper explores SVM, Decision Tree, PCA, and AdaBoost on TF-IDF /
Word2Vec features, plus NMF for keyword extraction.  The offline environment
has no scikit-learn, so each algorithm is implemented here on numpy.
"""
