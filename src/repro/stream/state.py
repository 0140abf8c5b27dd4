"""Ingestion state: dedup set, bug registers, distributions — crash-safe.

Two design rules make this state *robust by construction*:

1. **Exactly-once via idempotence.**  The ``seen`` set holds the 64-bit
   canonical digest of every applied event; a delivery whose digest is
   already present is a dedup hit, not a second application.  A crash
   between "event applied" and "checkpoint committed" therefore costs
   nothing: the replayed batch re-offers the same digests and they all
   dedup away.

2. **Commutative-idempotent analytics.**  Everything derived from the
   stream — per-bug registers (last-writer-wins on the ``(at, digest)``
   total order), per-type counters over *unique* events, event-time day
   buckets for the rolling distributions — is a pure function of the *set*
   of applied events, so any permutation or duplication of the wire stream
   converges to the same :meth:`StreamState.analytics_digest`.

The full :meth:`StreamState.fingerprint` additionally covers the
order-dependent pieces (operational counters, the online learner) and is
the kill/resume bit-identity yardstick: replay order is deterministic, so
a resumed run must reproduce it exactly.

Snapshots are the :class:`~repro.recovery.fold.Snapshot` discipline the
fuzzer shares: canonical JSON, atomic writes, journaled digests verified
on load.  The canonical JSON is the same bytes
``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))`` gives,
but ``_chunks``, the pieces the base class joins, hashes and streams to
disk, assembles it from the encodings of its members, and each member
is encoded once per change: the sorted ``seen`` list takes in only the
digests applied since the last encode, and a bug register is re-encoded,
through its fixed schema, only when an event touched it.  ``to_dict``
stays the structured view that the tests hold the encoder to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Iterator, Mapping

from repro.errors import StreamError
from repro.recovery.fold import STATE_VERSION, Snapshot, sha256_chunks
from repro.stream.events import TrackerEvent
from repro.stream.online import OnlineLinearSVM, RollingDistribution


def _empty_register() -> dict[str, Any]:
    return {
        "events": 0,
        "last_at": "",
        "last_digest": "",
        "status": None,
        "status_at": "",
        "status_digest": "",
    }


def _register_json(register: Mapping[str, Any]) -> str:
    """One bug register's canonical JSON, through the fixed schema of
    :func:`_empty_register`, whose keys are already in sorted order."""
    status = register["status"]
    return (
        f'{{"events":{register["events"]},'
        f'"last_at":{_string(register["last_at"])},'
        f'"last_digest":{_string(register["last_digest"])},'
        f'"status":{"null" if status is None else _string(status)},'
        f'"status_at":{_string(register["status_at"])},'
        f'"status_digest":{_string(register["status_digest"])}}}'
    )


def _json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _merge(order: list[Any], new: list[Any]) -> None:
    """Merge ``new`` into the sorted list ``order`` and empty it: sorting
    the few new keys, then ``order``, is one linear merge of two runs."""
    if new:
        new.sort()
        order += new
        order.sort()
        new.clear()


def _object(members: Mapping[str, str]) -> Iterator[str]:
    """A JSON object's canonical form from its members' encodings: the
    comma-join of its sorted ``"key":value`` pairs."""
    yield "{"
    for i, key in enumerate(sorted(members)):
        yield f'{"," if i else ""}{_string(key)}:'
        yield members[key]
    yield "}"


#: The integer members of the snapshot besides ``applied``.
_COUNTERS = (
    "batch_index", "consumed", "deduped", "dead_lettered", "lost_upstream",
    "blocks_fetched", "blocks_abandoned", "retries", "rate_limited",
    "max_queue_depth", "trained",
)


def _cache(factory: Any) -> Any:
    return field(default_factory=factory, init=False, repr=False, compare=False)


@dataclass
class StreamState(Snapshot):
    """Everything the ingestion fold reads and writes."""

    error = StreamError
    kind = "stream state"

    config: dict[str, Any]
    batch_index: int = -1  # last *committed* batch
    # -- accounting (the invariant: consumed == applied + deduped + dead_lettered,
    #    emitted == consumed + lost_upstream) ------------------------------------
    consumed: int = 0
    applied: int = 0
    deduped: int = 0
    dead_lettered: int = 0
    lost_upstream: int = 0
    # -- operational counters ----------------------------------------------------
    blocks_fetched: int = 0
    blocks_abandoned: int = 0
    retries: int = 0
    rate_limited: int = 0
    max_queue_depth: int = 0
    trained: int = 0
    # -- analytics --------------------------------------------------------------
    seen: set[int] = field(default_factory=set)
    bugs: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_type: dict[str, int] = field(default_factory=dict)
    dist: RollingDistribution = field(default_factory=RollingDistribution)
    model: OnlineLinearSVM | None = None
    # -- encoding caches: ``seen`` and ``bugs`` change only through ``apply``,
    #    which queues what it changed for the next encode ----------------------
    _seen_order: list[int] = _cache(list)  # the encoded digests, sorted
    _seen_new: list[int] = _cache(list)  # applied since the last encode
    _bug_order: list[str] = _cache(list)  # sorted ids of the encoded registers
    _bug_json: dict[str, str] = _cache(dict)  # id -> its encoded member
    _dirty: set[str] = _cache(set)  # ids applied since the last encode

    def __post_init__(self) -> None:
        self._seen_new = list(self.seen)
        self._dirty = set(self.bugs)

    # -- application ------------------------------------------------------------
    def apply(self, event: TrackerEvent, digest: int) -> None:
        """Apply one *unique* event (caller has already checked ``seen``).

        Every update here commutes: counters count unique events, registers
        take the max over the ``(at, digest)`` total order, distribution
        buckets are keyed by event time.
        """
        self.seen.add(digest)
        self._seen_new.append(digest)
        self.applied += 1
        self.by_type[event.event_type] = self.by_type.get(event.event_type, 0) + 1
        register = self.bugs.setdefault(event.bug_id, _empty_register())
        self._dirty.add(event.bug_id)
        register["events"] += 1
        # ``digest`` is the 64-bit truncation of ``event.digest()``;
        # formatting it back avoids re-canonicalizing + re-hashing the
        # event on this hot path.
        mark = (event.at, f"{digest:016x}")
        if mark > (register["last_at"], register["last_digest"]):
            register["last_at"], register["last_digest"] = mark
        status = event.payload.get("status")
        if status is not None and mark > (
            register["status_at"], register["status_digest"]
        ):
            register["status_at"], register["status_digest"] = mark
            register["status"] = str(status)
        labels = event.payload.get("labels")
        if (
            isinstance(labels, dict)
            and "symptom" in labels
            and "root_cause" in labels
        ):
            self.dist.observe(event.at, str(labels["symptom"]), str(labels["root_cause"]))

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": STATE_VERSION,
            "config": self.config,
            "batch_index": self.batch_index,
            "consumed": self.consumed,
            "applied": self.applied,
            "deduped": self.deduped,
            "dead_lettered": self.dead_lettered,
            "lost_upstream": self.lost_upstream,
            "blocks_fetched": self.blocks_fetched,
            "blocks_abandoned": self.blocks_abandoned,
            "retries": self.retries,
            "rate_limited": self.rate_limited,
            "max_queue_depth": self.max_queue_depth,
            "trained": self.trained,
            "seen": sorted(self.seen),
            "bugs": {bug_id: self.bugs[bug_id] for bug_id in sorted(self.bugs)},
            "by_type": {key: self.by_type[key] for key in sorted(self.by_type)},
            "dist": self.dist.to_dict(),
            "model": None if self.model is None else self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StreamState":
        seen = [int(v) for v in data["seen"]]
        state = cls(
            config=dict(data["config"]),
            batch_index=int(data["batch_index"]),
            consumed=int(data["consumed"]),
            applied=int(data["applied"]),
            deduped=int(data["deduped"]),
            dead_lettered=int(data["dead_lettered"]),
            lost_upstream=int(data["lost_upstream"]),
            blocks_fetched=int(data["blocks_fetched"]),
            blocks_abandoned=int(data["blocks_abandoned"]),
            retries=int(data["retries"]),
            rate_limited=int(data["rate_limited"]),
            max_queue_depth=int(data["max_queue_depth"]),
            trained=int(data["trained"]),
            seen=set(seen),
            bugs={str(k): dict(v) for k, v in data["bugs"].items()},
            by_type={str(k): int(v) for k, v in data["by_type"].items()},
            dist=RollingDistribution.from_dict(data["dist"]),
            model=(
                None
                if data["model"] is None
                else OnlineLinearSVM.from_dict(data["model"])
            ),
        )
        state._seen_new = seen  # sorted in a snapshot: its sort is one pass
        return state

    # -- encoding --------------------------------------------------------------
    def _seen_json(self) -> str:
        _merge(self._seen_order, self._seen_new)
        # A list of ints reprs as its compact JSON array plus a space after
        # each comma, and the C repr is faster than formatting each int.
        return repr(self._seen_order).replace(" ", "")

    def _bugs_json(self) -> str:
        _merge(self._bug_order, [
            bug_id for bug_id in self._dirty if bug_id not in self._bug_json
        ])
        for bug_id in self._dirty:
            self._bug_json[bug_id] = (
                f"{_string(bug_id)}:{_register_json(self.bugs[bug_id])}"
            )
        self._dirty.clear()
        return f"{{{','.join([self._bug_json[bug_id] for bug_id in self._bug_order])}}}"

    def _analytics_members(self) -> dict[str, str]:
        return {
            "applied": str(self.applied),
            "seen": self._seen_json(),
            "bugs": self._bugs_json(),
            "by_type": _json(self.by_type),
            "dist": _json(self.dist.to_dict()),
        }

    def _chunks(self) -> Iterator[str]:
        """The canonical JSON of :meth:`to_dict`, member by member (the
        pieces the base's ``canonical_json``, ``fingerprint`` and ``save``
        read)."""
        members = self._analytics_members()
        members.update((name, str(getattr(self, name))) for name in _COUNTERS)
        members["version"] = str(STATE_VERSION)
        members["config"] = _json(self.config)
        members["model"] = _json(None if self.model is None else self.model.to_dict())
        return _object(members)

    def analytics_digest(self) -> str:
        """sha256 over the order/duplication-invariant projection.

        Covers exactly what is a pure function of the applied-event *set*:
        the dedup set, bug registers, per-type counts, distributions, and
        the unique-application counter.  Operational counters (``consumed``,
        ``deduped``, retries...) and the learner vary with delivery order
        and are deliberately excluded.
        """
        return sha256_chunks(_object(self._analytics_members()))


save_state = StreamState.save
load_state = StreamState.load
