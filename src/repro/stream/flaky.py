"""The seeded flaky-source wrapper: everything the paper says goes wrong.

:class:`FlakySource` sits between an event producer and the ingest
pipeline and injects, deterministically per ``(seed, block)``:

- **outages** — a block's fetch fails its first *k* attempts with
  :class:`~repro.errors.SourceOutageError` before succeeding;
- **rate limits** — :class:`~repro.errors.RateLimitedError` with a
  ``retry_after`` hint the retry loop must honor;
- **corruption** — wire records truncated or de-quoted into invalid JSON
  (irrecoverable), or prefixed with a BOM (recoverable by lenient DLQ
  replay);
- **duplicates** — a record delivered twice, byte-identical;
- **reordering** — a block-local shuffle of delivery order.

Every decision is a pure function of ``(seed, block_index)`` via
``random.Random(f"flaky:{seed}:...:{b}")`` — two instances over the same
underlying stream emit byte-identical wire blocks, which is what lets a
resumed consumer regenerate the exact remainder of a half-ingested stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import RateLimitedError, SourceOutageError, StreamError
from repro.stream.events import TrackerEvent

#: Fetch-plan kinds.
PLAN_CLEAN = "clean"
PLAN_OUTAGE = "outage"
PLAN_RATE_LIMIT = "rate-limit"


@dataclass(frozen=True)
class FaultMix:
    """Fault probabilities for one flaky source.

    Rates are probabilities: per *block* for outages, rate limits, and
    reordering; per *record* for corruption and duplication.
    ``outage_depth`` caps how many consecutive attempts an outage eats.
    """

    outage_rate: float = 0.0
    outage_depth: int = 2
    rate_limit_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("outage_rate", "rate_limit_rate", "corrupt_rate",
                     "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise StreamError(f"{name} must be in [0, 1], got {value}")
        if self.outage_depth < 1:
            raise StreamError(f"outage_depth must be >= 1, got {self.outage_depth}")

    def to_dict(self) -> dict[str, float | int]:
        return {
            "outage_rate": self.outage_rate,
            "outage_depth": self.outage_depth,
            "rate_limit_rate": self.rate_limit_rate,
            "corrupt_rate": self.corrupt_rate,
            "duplicate_rate": self.duplicate_rate,
            "reorder_rate": self.reorder_rate,
        }


@dataclass(frozen=True)
class BlockPlan:
    """The deterministic fetch fate of one block."""

    kind: str
    #: Attempts that fail before a fetch succeeds (0 for clean blocks).
    failures: int
    #: Rate-limit backoff hint, simulated seconds (0 when not throttled).
    retry_after: float


class FlakySource:
    """A deterministic flaky wrapper over an indexed event producer.

    ``supply(i)`` must return event ``i`` of the underlying stream as a
    pure function of ``i`` (see :func:`~repro.stream.source.synthetic_event`);
    ``total`` is the stream length.  Records are delivered in blocks of
    ``block_size`` wire strings.
    """

    def __init__(
        self,
        supply: Callable[[int], TrackerEvent],
        total: int,
        *,
        mix: FaultMix,
        seed: int = 0,
        block_size: int = 64,
    ) -> None:
        if total < 0:
            raise StreamError(f"total must be >= 0, got {total}")
        if block_size < 1:
            raise StreamError(f"block_size must be >= 1, got {block_size}")
        self.supply = supply
        self.total = total
        self.mix = mix
        self.seed = seed
        self.block_size = block_size

    @property
    def n_blocks(self) -> int:
        return -(-self.total // self.block_size)

    def plan(self, block: int) -> BlockPlan:
        """How the fetch of ``block`` will (mis)behave."""
        rng = random.Random(f"flaky:{self.seed}:plan:{block}")
        if rng.random() < self.mix.outage_rate:
            return BlockPlan(
                kind=PLAN_OUTAGE,
                failures=rng.randint(1, self.mix.outage_depth),
                retry_after=0.0,
            )
        if rng.random() < self.mix.rate_limit_rate:
            return BlockPlan(
                kind=PLAN_RATE_LIMIT,
                failures=1,
                retry_after=round(1.0 + 4.0 * rng.random(), 3),
            )
        return BlockPlan(kind=PLAN_CLEAN, failures=0, retry_after=0.0)

    # -- wire mangling ---------------------------------------------------------
    def wire_block(self, block: int) -> list[str]:
        """The wire records block ``block`` delivers once a fetch succeeds.

        Pure function of ``(seed, block)`` and the underlying stream:
        corruption, duplication, and reordering included.
        """
        start = block * self.block_size
        stop = min(start + self.block_size, self.total)
        rng = random.Random(f"flaky:{self.seed}:wire:{block}")
        records: list[str] = []
        for index in range(start, stop):
            raw = self.supply(index).canonical()
            if rng.random() < self.mix.corrupt_rate:
                raw = _corrupt(raw, rng)
            records.append(raw)
            if rng.random() < self.mix.duplicate_rate:
                records.append(raw)
        if len(records) > 1 and rng.random() < self.mix.reorder_rate:
            rng.shuffle(records)
        return records

    def fetch(self, block: int, attempt: int) -> list[str]:
        """Attempt ``attempt`` (1-based) at fetching ``block``.

        Raises the planned transient error while ``attempt <= failures``;
        afterwards the fetch succeeds and returns the wire records.
        """
        if attempt < 1:
            raise StreamError(f"attempt is 1-based, got {attempt}")
        fate = self.plan(block)
        if attempt <= fate.failures:
            if fate.kind == PLAN_RATE_LIMIT:
                raise RateLimitedError(
                    f"block {block}: throttled (retry after "
                    f"{fate.retry_after:.1f}s)",
                    retry_after=fate.retry_after,
                )
            raise SourceOutageError(
                f"block {block}: upstream unreachable "
                f"(attempt {attempt}/{fate.failures} of planned outage)"
            )
        return self.wire_block(block)


def _corrupt(raw: str, rng: random.Random) -> str:
    """Mangle one wire record.  Two variants are irrecoverable (truncation,
    de-quoting); the BOM variant is exactly what lenient DLQ replay fixes."""
    roll = rng.random()
    if roll < 0.4:
        return raw[: max(1, len(raw) // 2)]
    if roll < 0.7:
        return raw.replace('"', "", 1)
    return "﻿  " + raw
