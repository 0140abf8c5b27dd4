"""In-memory span tracing around the program's public calls.

The traced run patches each call named in :mod:`layers` at the name its
caller uses.  Every patched call records a span (name, start, end, parent,
unit id); hot per-record calls are kept as a count and a total under the
span that made them instead.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time of its child spans and of
the hot calls made directly under it, so the self times of every span in a
unit plus the hot totals add up to the root span's duration.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    unit: int = 0
    phase: str = ""
    #: Hot-call time and count recorded directly under this span, by name.
    hot_s: dict[str, float] = field(default_factory=dict)
    hot_n: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceError(RuntimeError):
    """The span tree is inconsistent (a bookkeeping bug, never host noise)."""


class Tracer:
    """Records spans for one unit of work; ``phase`` tags the spans begun
    while it is set (the lint workload marks its cold and re-lint passes)."""

    def __init__(self, unit: int = 0) -> None:
        self.unit = unit
        self.phase = ""
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._in_hot = False

    def begin(self, name: str) -> int:
        if self._in_hot:
            raise TraceError(f"span {name!r} began inside a hot call")
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               unit=self.unit, phase=self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise TraceError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def add_hot(self, name: str, seconds: float) -> None:
        if not self._stack:
            raise TraceError(f"hot call {name!r} outside any span")
        span = self.spans[self._stack[-1]]
        span.hot_s[name] = span.hot_s.get(name, 0.0) + seconds
        span.hot_n[name] = span.hot_n.get(name, 0) + 1

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        hot: bool = False,
        after: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording a span (or a hot count) named ``name``.

        A generator result is drained inside the span, so the work it does
        is timed where it happens; callers iterate it once either way.
        """
        tracer = self
        perf = time.perf_counter

        if hot:
            def hot_wrapper(*args, **kwargs):
                if tracer._in_hot:  # nested hot call: timed by the outer one
                    return fn(*args, **kwargs)
                tracer._in_hot = True
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._in_hot = False
                    tracer.add_hot(name, perf() - start)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            return hot_wrapper

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    result = list(result)
            finally:
                tracer.finish(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return wrapper

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps({
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "unit": s.unit, "phase": s.phase,
                "hot_s": s.hot_s, "hot_n": s.hot_n,
            }, sort_keys=True) + "\n"
            for s in self.spans
        )


def self_times(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Self time by ``(phase, name)``; hot calls count under their own name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    out: dict[tuple[str, str], float] = defaultdict(float)
    for i, span in enumerate(spans):
        own = span.duration - child[i] - sum(span.hot_s.values())
        if own < -1e-6:
            raise TraceError(
                f"span {span.name!r} has negative self time {own:.6f}s"
            )
        out[(span.phase, span.name)] += own
        for name, seconds in span.hot_s.items():
            out[(span.phase, name)] += seconds
    return dict(out)


def call_counts(spans: list[Span]) -> dict[tuple[str, str], int]:
    """Calls by ``(phase, name)``, hot calls included."""
    out: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        out[(span.phase, span.name)] += 1
        for name, count in span.hot_n.items():
            out[(span.phase, name)] += count
    return dict(out)


def check_closure(spans: list[Span], wall_s: float, *, tolerance: float = 0.05) -> float:
    """Relative gap between summed self times and the unit's wall time.

    Raises :class:`TraceError` when the gap exceeds ``tolerance``.
    """
    total = sum(self_times(spans).values())
    gap = abs(total - wall_s) / wall_s if wall_s > 0 else 0.0
    if gap > tolerance:
        raise TraceError(
            f"self times sum to {total:.4f}s but the traced wall time is "
            f"{wall_s:.4f}s ({gap:.1%} apart, limit {tolerance:.0%})"
        )
    return gap


class Patcher:
    """Installs wrappers at ``(owner, attribute)`` and restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every recorded span once, at the end of the run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(t.to_jsonl() for t in tracers), encoding="utf-8")
