"""repro — reproduction of "A Comprehensive Study of Bugs in Software
Defined Networks" (Bhardwaj, Zhou, Benson; DSN 2021).

The package is organized bottom-up:

* substrates: :mod:`repro.trackers`, :mod:`repro.textmining`,
  :mod:`repro.ml`, :mod:`repro.embeddings`, :mod:`repro.smells`,
  :mod:`repro.gitmodel`, :mod:`repro.vuln`, :mod:`repro.sdnsim`;
* the study itself: :mod:`repro.taxonomy`, :mod:`repro.corpus`,
  :mod:`repro.pipeline`, :mod:`repro.analysis`;
* applications of the study: :mod:`repro.faultinjection`,
  :mod:`repro.frameworks`, :mod:`repro.guidance`;
* paper ground truth and rendering: :mod:`repro.paperdata`,
  :mod:`repro.reporting`.

Quickstart::

    from repro.analysis import determinism_rates
    from repro.corpus import CorpusGenerator

    corpus = CorpusGenerator(seed=2020).generate()
    print(determinism_rates(corpus.dataset))
"""

from repro._version import __version__

__all__ = ["__version__"]
