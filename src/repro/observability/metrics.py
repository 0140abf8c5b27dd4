"""Counters, gauges and fixed-bucket histograms for the repro runtime.

The paper's whole method is *measurement*: symptom distributions,
resolution-time CDFs, framework-coverage tables — all mined from event
streams the projects already produced.  This module gives our own runtime
the same discipline.  A :class:`MetricsRegistry` holds three instrument
kinds (Prometheus's core trio):

* **Counter** — monotone total (requests served, tokens discovered);
* **Gauge** — point-in-time level (queue depth, corpus energy);
* **Histogram** — fixed-bucket distribution with exact ``sum``/``count``
  (per-class latency, batch sizes).

Design constraints, in order:

1. **Determinism.**  Instruments are timestamped by an injectable clock
   (the serving daemon binds its simulation clock; the default is a
   constant ``0.0``, never wall time), families export in sorted name
   order, label names are sorted at registration, and label *sets* export
   in sorted value order — so two same-seed runs export **byte-identical**
   text.  Wall-clock stamps would silently break the crash-resume and
   A/B fingerprint contracts, which is why they are not even the default.
2. **Thread safety.**  One registry lock guards every mutation, so
   instruments can be updated from :class:`~repro.parallel.executor.WorkPool`
   thread workers without torn read-modify-write updates.
3. **Exportability.**  ``export_jsonl()``/``from_jsonl()`` round-trip
   the full state (the shape the ``repro metrics`` report and the
   trajectory gate consume).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ObservabilityError

#: Default histogram upper bounds (simulated seconds), spanning the
#: serving daemon's observed latency range (~10 ms queries to ~100 s
#: bare-arm collapse).  ``+Inf`` is always implied as the final bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


def _fmt_number(value: float) -> str:
    """Canonical text form: integral floats lose the ``.0``, others keep
    full ``repr`` precision — stable across platforms for golden tests."""
    if value != value or value in (math.inf, -math.inf):
        return {math.inf: "+Inf", -math.inf: "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _parse_le(text: str) -> float:
    return math.inf if text == "+Inf" else float(text)


class _Instrument:
    """One family: a named instrument plus its labeled children."""

    kind = ""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
    ) -> None:
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, **labels: str) -> Any:
        """The child for this label set, created on first use."""
        if sorted(labels) != list(self.label_names):
            raise ObservabilityError(
                f"{self.name}: expected labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self) -> Any:
        if self.label_names:
            raise ObservabilityError(
                f"{self.name}: labeled instrument needs .labels(...) first"
            )
        return self.labels()

    def _make_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def _sorted_children(self) -> list[tuple[tuple[str, ...], Any]]:
        return sorted(self._children.items())


class _CounterChild:
    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _GaugeChild:
    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """Point-in-time level that can move both ways."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _HistogramChild:
    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]) -> None:
        self._lock = lock
        self.buckets = buckets
        #: Per-bucket (non-cumulative) counts; index len(buckets) is +Inf.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, times: int = 1) -> None:
        with self._lock:
            self.sum += value * times
            self.count += times
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += times
                    return
            self.counts[-1] += times

    def cumulative(self) -> list[int]:
        """Prometheus-style cumulative bucket counts (``le`` semantics)."""
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


class Histogram(_Instrument):
    """Fixed-bucket distribution with exact sum and count."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(registry, name, help_text, label_names)
        if not buckets:
            raise ObservabilityError(f"{name}: histogram needs >= 1 bucket bound")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ObservabilityError(
                f"{name}: bucket bounds must be strictly increasing: {buckets}"
            )
        if any(b == math.inf for b in buckets):
            raise ObservabilityError(
                f"{name}: +Inf bucket is implicit, do not pass it"
            )
        self.buckets = tuple(float(b) for b in buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value``, ``times`` times over."""
        self._default_child().observe(value, times)


class MetricsRegistry:
    """A deterministic, thread-safe instrument registry.

    ``clock`` is a zero-argument callable stamping exported samples; it
    defaults to a constant ``0.0`` (never wall time) so exports stay
    byte-identical across same-seed runs unless a caller deliberately
    binds a clock (the serving daemon binds its simulation clock).
    """

    def __init__(self, *, clock: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._families: dict[str, _Instrument] = {}

    # -- registration ----------------------------------------------------------
    def _register(self, instrument: _Instrument) -> _Instrument:
        name = instrument.name
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in instrument.label_names:
            if not _LABEL_RE.match(label):
                raise ObservabilityError(
                    f"{name}: invalid label name {label!r}"
                )
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                self._families[name] = instrument
                return instrument
        if existing.kind != instrument.kind:
            raise ObservabilityError(
                f"{name}: already registered as a {existing.kind}, "
                f"cannot re-register as a {instrument.kind}"
            )
        if existing.label_names != instrument.label_names:
            raise ObservabilityError(
                f"{name}: label names {existing.label_names} != "
                f"{instrument.label_names}"
            )
        if (
            isinstance(existing, Histogram)
            and isinstance(instrument, Histogram)
            and existing.buckets != instrument.buckets
        ):
            raise ObservabilityError(
                f"{name}: bucket bounds {existing.buckets} != "
                f"{instrument.buckets}"
            )
        return existing

    def counter(
        self, name: str, help_text: str = "", *, labels: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter (idempotent for an identical spec)."""
        family = self._register(
            Counter(self, name, help_text, tuple(sorted(labels)))
        )
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help_text: str = "", *, labels: Sequence[str] = ()
    ) -> Gauge:
        family = self._register(
            Gauge(self, name, help_text, tuple(sorted(labels)))
        )
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._register(
            Histogram(
                self, name, help_text, tuple(sorted(labels)),
                tuple(float(b) for b in buckets),
            )
        )
        assert isinstance(family, Histogram)
        return family

    # -- introspection ---------------------------------------------------------
    def families(self) -> list[_Instrument]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge child (0.0 if never touched)."""
        family = self.get(name)
        if family is None:
            raise ObservabilityError(f"unknown metric {name!r}")
        if isinstance(family, Histogram):
            raise ObservabilityError(f"{name}: use sample dicts for histograms")
        key = tuple(str(labels[n]) for n in family.label_names)
        with self._lock:
            child = family._children.get(key)
            return child.value if child is not None else 0.0

    # -- export ----------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-safe sample dict per labeled child, in export order."""
        now = float(self._clock())
        samples: list[dict[str, Any]] = []
        for family in self.families():
            with self._lock:
                children = family._sorted_children()
            for key, child in children:
                labels = dict(zip(family.label_names, key))
                sample: dict[str, Any] = {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labels": labels,
                    "time": now,
                }
                if isinstance(child, _HistogramChild):
                    bounds = [_fmt_number(b) for b in child.buckets] + ["+Inf"]
                    sample["buckets"] = [
                        [bound, count]
                        for bound, count in zip(bounds, child.cumulative())
                    ]
                    sample["sum"] = child.sum
                    sample["count"] = child.count
                else:
                    sample["value"] = child.value
                samples.append(sample)
        return samples

    def export_jsonl(self) -> str:
        """One canonical JSON object per sample, newline-terminated."""
        lines = [
            json.dumps(sample, sort_keys=True, separators=(",", ":"))
            for sample in self.to_dicts()
        ]
        return "".join(line + "\n" for line in lines)

    # -- import ----------------------------------------------------------------
    def ingest(self, samples: Iterable[Mapping[str, Any]]) -> None:
        """Fold exported sample dicts into this registry's instruments."""
        for sample in samples:
            name = str(sample["name"])
            kind = str(sample["type"])
            if kind not in _KINDS:
                raise ObservabilityError(f"{name}: unknown sample type {kind!r}")
            help_text = str(sample.get("help", ""))
            labels = {str(k): str(v) for k, v in dict(sample["labels"]).items()}
            label_names = sorted(labels)
            if kind == "counter":
                family = self.counter(name, help_text, labels=label_names)
                family.labels(**labels).inc(float(sample["value"]))
            elif kind == "gauge":
                family = self.gauge(name, help_text, labels=label_names)
                family.labels(**labels).set(float(sample["value"]))
            else:
                pairs = [(str(le), int(count)) for le, count in sample["buckets"]]
                bounds = tuple(
                    _parse_le(le) for le, _ in pairs if le != "+Inf"
                )
                family = self.histogram(
                    name, help_text, labels=label_names, buckets=bounds
                )
                child = family.labels(**labels)
                with self._lock:
                    previous = 0
                    for index, (_le, cumulative) in enumerate(pairs):
                        child.counts[index] += cumulative - previous
                        previous = cumulative
                    child.sum += float(sample["sum"])
                    child.count += int(sample["count"])

    @classmethod
    def from_jsonl(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`export_jsonl` output."""
        registry = cls()
        samples = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                samples.append(json.loads(line))
            except ValueError as exc:
                raise ObservabilityError(
                    f"metrics JSONL line {lineno}: {exc}"
                ) from exc
        registry.ingest(samples)
        return registry
