"""Parallel execution + artifact caching for the pipeline hot paths.

:class:`WorkPool` is a deterministic executor: results always come back in
input order, tasks must be pure functions of their arguments, ``jobs=1``
*is* the serial reference path.  :class:`ArtifactCache` is a
content-addressed store keyed on the full configuration (corpus seed +
hyperparameters) of each artifact.  Together they make repeat pipeline
runs fast by default while staying bit-for-bit equivalent to the serial,
cold-cache run — a property enforced by ``tests/test_parallel_equivalence.py``.
"""

from repro.parallel.cache import (
    DEFAULT_CACHE_ROOT,
    QUARANTINE_DIRNAME,
    ArtifactCache,
    CacheError,
    atomic_write,
    cache_key,
    canonicalize,
)
from repro.parallel.executor import PoisonTaskError, WorkPool

__all__ = [
    "ArtifactCache",
    "CacheError",
    "DEFAULT_CACHE_ROOT",
    "PoisonTaskError",
    "QUARANTINE_DIRNAME",
    "WorkPool",
    "atomic_write",
    "cache_key",
    "canonicalize",
]
