"""Non-negative matrix factorization with multiplicative updates.

Used for keyword/topic extraction from TF-IDF matrices (SS II-C: the paper
chooses NMF over LDA/HDP following prior bug-study work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotFittedError
from repro.parallel import WorkPool

_EPS = 1e-10


class NMF:
    """Factor a non-negative matrix ``V ~= W @ H``.

    ``W`` is ``(n_docs, n_topics)`` (document-topic weights) and ``H`` is
    ``(n_topics, n_terms)`` (topic-term weights).  Lee & Seung multiplicative
    updates minimize the Frobenius reconstruction error.
    """

    #: Convergence threshold on the relative error drop.
    tol = 1e-4
    #: Multiplicative-update rounds at most.
    max_iter = 200

    def __init__(self, n_components: int, *, seed: int = 0) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self.seed = seed
        self.components_: np.ndarray | None = None  # H
        self.reconstruction_err_: float | None = None
        self.n_iter_: int | None = None

    def fit_transform(self, V: np.ndarray) -> np.ndarray:
        """Fit the factorization and return ``W``."""
        V = np.asarray(V, dtype=np.float64)
        if V.ndim != 2:
            raise ValueError(f"V must be 2-D, got shape {V.shape}")
        if np.any(V < 0):
            raise ValueError("NMF requires a non-negative input matrix")
        n_docs, n_terms = V.shape
        k = min(self.n_components, n_docs, n_terms)
        rng = np.random.default_rng(self.seed)
        scale = np.sqrt(V.mean() / max(k, 1)) + _EPS
        W = rng.uniform(_EPS, scale * 2, size=(n_docs, k))
        H = rng.uniform(_EPS, scale * 2, size=(k, n_terms))
        previous_err = np.inf
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            # Multiplicative updates (Lee & Seung 2001).
            H *= (W.T @ V) / (W.T @ W @ H + _EPS)
            W *= (V @ H.T) / (W @ H @ H.T + _EPS)
            if n_iter % 10 == 0 or n_iter == self.max_iter:
                err = float(np.linalg.norm(V - W @ H))
                if previous_err - err < self.tol * max(previous_err, 1.0):
                    previous_err = err
                    break
                previous_err = err
        self.components_ = H
        self.reconstruction_err_ = float(np.linalg.norm(V - W @ H))
        self.n_iter_ = n_iter
        return W

    def fit(self, V: np.ndarray) -> "NMF":
        self.fit_transform(V)
        return self

    def transform(self, V: np.ndarray) -> np.ndarray:
        """Solve for W with H fixed (multiplicative updates on W only)."""
        if self.components_ is None:
            raise NotFittedError("NMF.transform called before fit")
        V = np.asarray(V, dtype=np.float64)
        H = self.components_
        rng = np.random.default_rng(self.seed)
        W = rng.uniform(_EPS, 1.0, size=(V.shape[0], H.shape[0]))
        for _ in range(self.max_iter):
            W_next = W * (V @ H.T) / (W @ H @ H.T + _EPS)
            if np.max(np.abs(W_next - W)) < self.tol:
                W = W_next
                break
            W = W_next
        return W

    def top_terms(self, feature_names: list[str], n_terms: int = 10) -> list[list[str]]:
        """For each topic, the ``n_terms`` highest-weight vocabulary terms."""
        if self.components_ is None:
            raise NotFittedError("NMF.top_terms called before fit")
        topics: list[list[str]] = []
        for row in self.components_:
            order = np.argsort(row)[::-1][:n_terms]
            topics.append([feature_names[i] for i in order])
        return topics


def _restart_task(
    task: tuple[np.ndarray, int, int],
) -> tuple[int, float, np.ndarray, np.ndarray, int]:
    """One NMF restart; module-level for the process backend."""
    V, n_components, seed = task
    model = NMF(n_components, seed=seed)
    W = model.fit_transform(V)
    assert model.components_ is not None
    assert model.reconstruction_err_ is not None and model.n_iter_ is not None
    return seed, model.reconstruction_err_, W, model.components_, model.n_iter_


@dataclass
class MultiRestartResult:
    """Best-of-N NMF factorization plus the per-restart error trace."""

    model: NMF
    W: np.ndarray
    best_seed: int
    errors: dict[int, float] = field(default_factory=dict)


def nmf_multi_restart(
    V: np.ndarray,
    n_components: int,
    *,
    restarts: int = 4,
    pool: WorkPool | None = None,
) -> MultiRestartResult:
    """Run ``restarts`` independent NMF fits, keep the best reconstruction.

    NMF's multiplicative updates only find a local optimum, so topic
    pipelines conventionally restart from several seeds.  Restarts are
    independent (seed ``i`` each), which makes this fan-out safe for
    any :class:`~repro.parallel.WorkPool` worker count; the winner is
    selected by ``(reconstruction error, seed)`` — a total order that does
    not depend on completion order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    V = np.asarray(V, dtype=np.float64)
    tasks = [(V, n_components, seed) for seed in range(restarts)]
    pool = pool if pool is not None else WorkPool(1)
    results = pool.map(_restart_task, tasks)
    best = min(results, key=lambda r: (r[1], r[0]))
    seed, err, W, H, n_iter = best
    model = NMF(n_components, seed=seed)
    model.components_ = H
    model.reconstruction_err_ = err
    model.n_iter_ = n_iter
    return MultiRestartResult(
        model=model,
        W=W,
        best_seed=seed,
        errors={r[0]: r[1] for r in results},
    )
