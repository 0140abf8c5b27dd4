"""Deterministic work-pool executor for the NLP/fault-campaign hot paths.

The contract that makes parallelism safe to sprinkle through the pipeline:

* **Fixed result ordering** — ``map`` always returns results in *input*
  order, never completion order, so ``jobs=4`` is indistinguishable from
  ``jobs=1`` for any pure task function.
* **Pure tasks only** — a task must be a deterministic function of its
  arguments.  Callers that need randomness derive an independent seeded
  stream per task (e.g. ``np.random.default_rng((seed, task_index))``)
  instead of sharing one sequential stream.
* **Serial fallback** — ``jobs=1`` (or unavailable worker processes)
  degrades to a plain loop with no executor machinery, so the serial path
  *is* the reference semantics, not a separate code path.
* **Fail-fast** — the first task exception propagates to the caller
  (after the pool shuts down); there is no partial-result swallowing here.
  Per-item fault boundaries live in :mod:`repro.resilience.executor`.
* **Worker-crash containment** — a worker that dies hard (OOM kill,
  ``os._exit``, a segfaulting extension) no longer aborts the whole map:
  results already completed are kept, and only the unfinished tasks are
  re-executed serially, each in a fresh single-worker pool.  A task that
  keeps killing its worker is *poison*: after ``poison_attempts`` tries it
  is quarantined and :class:`PoisonTaskError` is raised instead of looping
  forever.  Every contained task leaves an entry in ``WorkPool.containment``.

``jobs > 1`` runs tasks in worker processes (task functions must be
module-level picklables), preferring the ``fork`` start method where
available so numpy state and the imported package are inherited rather
than re-imported.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import ReproError


class PoisonTaskError(ReproError):
    """One task repeatedly killed its worker process and was quarantined."""

    def __init__(self, index: int, attempts: int) -> None:
        super().__init__(
            f"task {index} killed its worker process on all {attempts} "
            "attempt(s) and was quarantined"
        )
        self.index = index
        self.attempts = attempts


class WorkPool:
    """Map pure functions over task lists with a fixed-ordering guarantee.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` means strictly serial execution (no pool is
        ever created); with more, execution falls back to serial if worker
        processes cannot be created.
    """

    def __init__(self, jobs: int = 1, *, poison_attempts: int = 3) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if poison_attempts < 1:
            raise ValueError("poison_attempts must be >= 1")
        self.jobs = jobs
        self.poison_attempts = poison_attempts
        #: Set after each ``map`` to the backend that actually ran it.
        self.last_backend: str | None = None
        #: Per-task containment records from the last ``map``:
        #: ``{"index", "attempts", "outcome"}`` with outcome ``"recovered"``
        #: or ``"quarantined"``.
        self.containment: list[dict[str, Any]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkPool(jobs={self.jobs})"

    # -- execution -------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        """``[fn(t) for t in tasks]``, possibly computed concurrently.

        Results are returned in input order regardless of completion order.
        The first task exception is re-raised.
        """
        items = list(tasks)
        self.containment = []
        if len(items) <= 1 or self.jobs == 1:
            self.last_backend = "serial"
            return [fn(item) for item in items]
        return self._map_processes(fn, items)

    def starmap(
        self, fn: Callable[..., Any], tasks: Iterable[Sequence[Any]]
    ) -> list[Any]:
        """Like :meth:`map` but each task is an argument tuple."""
        return self.map(_StarTask(fn), [tuple(task) for task in tasks])

    def _mp_context(self):
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return None

    def _map_processes(self, fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            # Lambdas and closures cannot cross the process boundary; the
            # pickler reports that as PicklingError, AttributeError, or
            # TypeError depending on where lookup fails, so probe upfront
            # rather than guessing from a mid-map failure.
            pickle.dumps(fn)
        except (pickle.PicklingError, AttributeError, TypeError):
            self.last_backend = "serial-fallback"
            return [fn(item) for item in items]
        futures = None
        try:
            workers = min(self.jobs, len(items))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=self._mp_context()
            ) as ex:
                futures = [ex.submit(fn, item) for item in items]
                results = [future.result() for future in futures]
        except BrokenProcessPool:
            # A worker died hard mid-map.  Keep everything that finished and
            # contain the rest instead of aborting (or re-running) the whole
            # batch.
            return self._contain_broken_pool(fn, items, futures)
        except (OSError, ImportError, pickle.PicklingError):
            # Sandboxes without working process spawning, or a task/result
            # that cannot be shipped back, fall back to the reference serial
            # semantics — tasks are pure by contract, so re-running is safe.
            self.last_backend = "serial-fallback"
            return [fn(item) for item in items]
        self.last_backend = "process"
        return results

    def _contain_broken_pool(
        self, fn: Callable[[Any], Any], items: list[Any], futures: list | None
    ) -> list[Any]:
        """Salvage a broken pool: keep done results, re-run the rest.

        Completed futures keep their results (input order is positional, so
        ordering is preserved).  Unfinished tasks re-execute one at a time,
        each in a fresh single-worker pool so a poison task can only kill
        its own sandbox; after ``poison_attempts`` worker deaths the task is
        quarantined via :class:`PoisonTaskError`.  A genuine task exception
        found along the way still fails fast, per the map contract.
        """
        from concurrent.futures.process import BrokenProcessPool

        results: list[Any] = [None] * len(items)
        pending: list[int] = []
        for index, future in enumerate(futures or []):
            if future.done() and not future.cancelled():
                error = future.exception()
                if error is None:
                    results[index] = future.result()
                    continue
                if not isinstance(error, BrokenProcessPool):
                    raise error
            pending.append(index)
        if futures is None:
            pending = list(range(len(items)))
        self.last_backend = "process-contained"
        for index in pending:
            results[index] = self._run_contained(fn, items[index], index)
        return results

    def _run_contained(self, fn: Callable[[Any], Any], item: Any, index: int) -> Any:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        for attempt in range(1, self.poison_attempts + 1):
            try:
                with ProcessPoolExecutor(
                    max_workers=1, mp_context=self._mp_context()
                ) as ex:
                    value = ex.submit(fn, item).result()
            except (BrokenProcessPool, OSError):
                # The worker died again (or the pool could not even start).
                # Never re-run a worker-killing task in the parent process —
                # containment must not turn into parent death.
                continue
            self.containment.append(
                {"index": index, "attempts": attempt, "outcome": "recovered"}
            )
            return value
        self.containment.append(
            {
                "index": index,
                "attempts": self.poison_attempts,
                "outcome": "quarantined",
            }
        )
        raise PoisonTaskError(index, self.poison_attempts)


class _StarTask:
    """Picklable argument-unpacking wrapper for :meth:`WorkPool.starmap`."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)
