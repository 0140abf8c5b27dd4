"""A per-item fault boundary for pipeline stages.

The NLP/analysis pipeline historically aborted a whole corpus run when any
single item raised.  :func:`map_isolated` isolates each item: a failure
lands in the report's failure list, and the run completes with partial
results and a ``degraded=True`` flag instead of an exception.  An item is
tried once: a deterministic error re-raises identically, so retrying it
would only burn budget (the paper's restart lesson applied at item
granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class ItemFailure:
    """One item that could not be processed."""

    index: int
    item: Any
    error: str


@dataclass
class ExecutionReport:
    """Partial results plus the failures of one executor run."""

    results: dict[int, Any] = field(default_factory=dict)
    failures: list[ItemFailure] = field(default_factory=list)
    degraded: bool = False

    @property
    def total(self) -> int:
        return len(self.results) + len(self.failures)


def map_isolated(fn: Callable[[Any], Any], items: Iterable[Any]) -> ExecutionReport:
    """Run ``fn`` over ``items`` behind the per-item fault boundary."""
    report = ExecutionReport()
    for index, item in enumerate(items):
        try:
            report.results[index] = fn(item)
        except Exception as exc:  # noqa: BLE001 - the fault boundary
            report.failures.append(
                ItemFailure(
                    index=index, item=item, error=f"{type(exc).__name__}: {exc}"
                )
            )
    report.degraded = bool(report.failures)
    return report
