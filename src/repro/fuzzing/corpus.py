"""Campaign state: corpus, coverage map, reproducers — crash-safe.

The whole campaign is a fold over batches: ``state' = step(state, batch)``
with ``step`` deterministic given the campaign seed.  Everything ``step``
reads or writes lives in :class:`FuzzState`, which serializes to canonical
JSON (sorted keys, sorted sets) — so a state has a *fingerprint*, two
states can be compared bit-for-bit, and a SIGKILLed campaign resumed from
its last committed snapshot converges on exactly the final state an
uninterrupted run produces (the PR-4 recovery discipline, applied to
fuzzing).

Snapshots are the :class:`~repro.recovery.fold.Snapshot` discipline:
atomic writes, journaled digests verified on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import FuzzError
from repro.recovery.fold import STATE_VERSION, Snapshot


@dataclass
class CorpusEntry:
    """One schedule kept because it reached unseen coverage."""

    entry_id: int
    origin: str  # "seed" or the mutation operator that produced it
    parent: int | None
    schedule: list[dict[str, Any]]
    new_tokens: tuple[str, ...]
    violated: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "origin": self.origin,
            "parent": self.parent,
            "schedule": self.schedule,
            "new_tokens": list(self.new_tokens),
            "violated": self.violated,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CorpusEntry":
        return cls(
            entry_id=int(data["entry_id"]),
            origin=str(data["origin"]),
            parent=None if data["parent"] is None else int(data["parent"]),
            schedule=list(data["schedule"]),
            new_tokens=tuple(data["new_tokens"]),
            violated=bool(data["violated"]),
        )


@dataclass
class Reproducer:
    """A ddmin-minimized reproducer for one violation class."""

    violation_class: str  # "<invariant>:<subject-kind>"
    invariant: str
    signature: str  # the coverage signature that first hit the class
    original: list[dict[str, Any]]
    minimized: list[dict[str, Any]]
    replays: int
    probes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "violation_class": self.violation_class,
            "invariant": self.invariant,
            "signature": self.signature,
            "original": self.original,
            "minimized": self.minimized,
            "replays": self.replays,
            "probes": self.probes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Reproducer":
        return cls(
            violation_class=str(data["violation_class"]),
            invariant=str(data["invariant"]),
            signature=str(data["signature"]),
            original=list(data["original"]),
            minimized=list(data["minimized"]),
            replays=int(data["replays"]),
            probes=int(data["probes"]),
        )


@dataclass
class FuzzState(Snapshot):
    """Everything a batch step reads and writes."""

    error = FuzzError
    kind = "fuzz state"

    config: dict[str, Any]
    batch_index: int = -1  # last *completed* batch
    executed: int = 0
    violated_runs: int = 0
    coverage: set[str] = field(default_factory=set)
    signatures: set[str] = field(default_factory=set)
    corpus: list[CorpusEntry] = field(default_factory=list)
    reproducers: dict[str, Reproducer] = field(default_factory=dict)
    #: Accumulated training set for the guidance tree (features -> violated).
    features: list[list[float]] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": STATE_VERSION,
            "config": self.config,
            "batch_index": self.batch_index,
            "executed": self.executed,
            "violated_runs": self.violated_runs,
            "coverage": sorted(self.coverage),
            "signatures": sorted(self.signatures),
            "corpus": [entry.to_dict() for entry in self.corpus],
            "reproducers": {
                key: self.reproducers[key].to_dict()
                for key in sorted(self.reproducers)
            },
            "features": self.features,
            "labels": self.labels,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzState":
        return cls(
            config=dict(data["config"]),
            batch_index=int(data["batch_index"]),
            executed=int(data["executed"]),
            violated_runs=int(data["violated_runs"]),
            coverage=set(data["coverage"]),
            signatures=set(data["signatures"]),
            corpus=[CorpusEntry.from_dict(row) for row in data["corpus"]],
            reproducers={
                key: Reproducer.from_dict(row)
                for key, row in data["reproducers"].items()
            },
            features=[list(map(float, row)) for row in data["features"]],
            labels=[int(v) for v in data["labels"]],
        )


save_state = FuzzState.save
load_state = FuzzState.load
