"""Text-mining substrate for the NLP autoclassification pipeline (SS II-C).

Implements tokenization, stemming, stop-word filtering, vocabulary indexing,
and TF-IDF vectorization from scratch (the offline environment has no
scikit-learn or gensim).
"""

from repro.textmining.stemmer import PorterStemmer
from repro.textmining.stopwords import ENGLISH_STOPWORDS
from repro.textmining.tfidf import TfidfVectorizer
from repro.textmining.tokenizer import Tokenizer, sliding_windows
from repro.textmining.vocabulary import Vocabulary

__all__ = [
    "PorterStemmer",
    "ENGLISH_STOPWORDS",
    "TfidfVectorizer",
    "Tokenizer",
    "sliding_windows",
    "Vocabulary",
]
