"""A per-item fault boundary for pipeline stages.

The NLP/analysis pipeline historically aborted a whole corpus run when any
single item raised.  :class:`ResilientExecutor` isolates each item: failures
land in an error ledger, exception types declared transient are retried
within a :class:`RetryPolicy` budget, and the run completes with partial
results and a ``degraded=True`` flag instead of an exception.

No wall-clock sleeping happens here — pipeline code runs outside the
simulator, so backoff delays are *accounted* (in the ledger, as recovery
cost) rather than waited out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ResilienceError
from repro.resilience.ledger import ResilienceEvent, ResilienceLedger
from repro.resilience.policies import RetryPolicy


@dataclass(frozen=True)
class ItemFailure:
    """One item that could not be processed."""

    index: int
    item: Any
    error: str
    attempts: int
    transient: bool


@dataclass
class ExecutionReport:
    """Partial results plus the error ledger for one executor run."""

    results: dict[int, Any] = field(default_factory=dict)
    failures: list[ItemFailure] = field(default_factory=list)
    degraded: bool = False
    retries: int = 0

    @property
    def total(self) -> int:
        return len(self.results) + len(self.failures)

    @property
    def success_rate(self) -> float:
        return len(self.results) / self.total if self.total else 1.0

    def values(self) -> list[Any]:
        """Successful results in input order."""
        return [self.results[i] for i in sorted(self.results)]


class ResilientExecutor:
    """Map a function over items without letting one failure sink the run.

    Parameters
    ----------
    retry:
        Budget for re-running items that raised a *transient* exception.
    transient:
        Exception types worth retrying; anything else fails the item
        immediately (a deterministic error re-raises identically, so
        retrying it just burns budget — the paper's restart lesson applied
        at item granularity).
    abort_threshold:
        If set, abort (raise :class:`ResilienceError`) when the failure
        fraction exceeds it; by default the run always completes degraded.
    """

    #: Component name the ledger records retries and degradations under.
    component = "pipeline"

    def __init__(
        self,
        *,
        retry: RetryPolicy | None = None,
        transient: tuple[type[BaseException], ...] = (),
        abort_threshold: float | None = None,
        ledger: ResilienceLedger | None = None,
    ) -> None:
        if abort_threshold is not None and not 0.0 < abort_threshold <= 1.0:
            raise ResilienceError("abort_threshold must be in (0, 1]")
        self.retry = retry or RetryPolicy(max_attempts=1, base_delay=0.0)
        self.transient = transient
        self.abort_threshold = abort_threshold
        self.ledger = ledger

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> ExecutionReport:
        """Run ``fn`` over ``items`` behind the per-item fault boundary."""
        report = ExecutionReport()
        for index, item in enumerate(items):
            self._run_item(fn, index, item, report)
        report.degraded = bool(report.failures)
        if (
            self.abort_threshold is not None
            and report.total
            and (1.0 - report.success_rate) > self.abort_threshold
        ):
            raise ResilienceError(
                f"{len(report.failures)}/{report.total} items failed, above "
                f"the {self.abort_threshold:.0%} abort threshold"
            )
        return report

    def _run_item(
        self, fn: Callable[[Any], Any], index: int, item: Any, report: ExecutionReport
    ) -> None:
        attempts = 0
        while True:
            attempts += 1
            try:
                report.results[index] = fn(item)
                return
            except self.transient as exc:
                if attempts <= self.retry.max_attempts:
                    report.retries += 1
                    if self.ledger is not None:
                        self.ledger.record(
                            ResilienceEvent.RETRY,
                            self.component,
                            detail=f"item {index}: {type(exc).__name__}: {exc}",
                            attempt=attempts,
                            delay=self.retry.delay_for(attempts),
                        )
                    continue
                self._fail(report, index, item, exc, attempts, transient=True)
                return
            except Exception as exc:  # noqa: BLE001 - the fault boundary
                self._fail(report, index, item, exc, attempts, transient=False)
                return

    def _fail(
        self,
        report: ExecutionReport,
        index: int,
        item: Any,
        exc: BaseException,
        attempts: int,
        *,
        transient: bool,
    ) -> None:
        report.failures.append(
            ItemFailure(
                index=index,
                item=item,
                error=f"{type(exc).__name__}: {exc}",
                attempts=attempts,
                transient=transient,
            )
        )
        if self.ledger is not None:
            self.ledger.record(
                ResilienceEvent.DEGRADATION,
                self.component,
                detail=f"item {index} dropped after {attempts} attempt(s): "
                f"{type(exc).__name__}: {exc}",
                attempt=attempts,
            )
