"""Replayable fault schedules: the adversary's input language.

An STS-style adversary is only useful if its perturbations are *replayable*:
the same schedule against the same build must produce the same violation,
or a minimized trace is worthless.  A :class:`FaultSchedule` is therefore an
explicit, serializable list of ``(time, target, action, param)`` events —
no hidden RNG state, no wall clock.  Randomness exists only in
:func:`random_schedule`, which derives the whole schedule from a seed up
front; after that, execution is pure discrete-event replay.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.errors import ReproError, ScheduleError


class FaultAction(enum.Enum):
    """The adversary's action vocabulary.

    Message-level actions (``DROP`` .. ``CORRUPT``) arm a rule on the target
    channel and affect the next ``param`` messages through it; node-level
    actions (``PARTITION`` .. ``KILL``) change control-plane membership or
    timing directly.
    """

    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    REORDER = "reorder"
    CORRUPT = "corrupt"
    PARTITION = "partition"
    HEAL = "heal"
    CLOCK_SKEW = "clock_skew"
    KILL = "kill"


#: Actions interpreted by a message channel (vs. by the world itself).
CHANNEL_ACTIONS = frozenset(
    {
        FaultAction.DROP,
        FaultAction.DUPLICATE,
        FaultAction.DELAY,
        FaultAction.REORDER,
        FaultAction.CORRUPT,
    }
)


def _numeric_field(data: dict[str, object], name: str, value: object) -> float:
    # bool is an int subclass, but "time": true is a malformed document.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScheduleError(
            f"fault event {data!r}: field {name!r} must be a number, "
            f"got {type(value).__name__}"
        )
    return float(value)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled adversary action.

    ``target`` names a channel (``node:a``, ``dev:1``), a node (for
    ``KILL``/``CLOCK_SKEW``), or a partition spec (``a|b,c`` — groups
    separated by ``|``, members by ``,``).  ``param`` is action-specific:
    message count for DROP/DUPLICATE/REORDER/CORRUPT, seconds for
    DELAY/CLOCK_SKEW, unused for PARTITION/HEAL/KILL.
    """

    time: float
    target: str
    action: FaultAction
    param: float = 1.0

    def to_dict(self) -> dict[str, object]:
        return {
            "time": self.time,
            "target": self.target,
            "action": self.action.value,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultEvent":
        if not isinstance(data, dict):
            raise ScheduleError(
                f"fault event must be a JSON object, got {type(data).__name__}"
            )
        missing = [key for key in ("time", "target", "action") if key not in data]
        if missing:
            raise ScheduleError(
                f"fault event {data!r} is missing field(s) {missing}"
            )
        try:
            action = FaultAction(data["action"])
        except ValueError:
            known = ", ".join(sorted(a.value for a in FaultAction))
            raise ScheduleError(
                f"unknown fault action {data['action']!r} (known: {known})"
            ) from None
        time = _numeric_field(data, "time", data["time"])
        param = _numeric_field(data, "param", data.get("param", 1.0))
        if time < 0:
            raise ScheduleError(f"fault event {data!r} scheduled before t=0")
        return cls(time=time, target=str(data["target"]), action=action, param=param)


@dataclass
class FaultSchedule:
    """An ordered, replayable sequence of adversary actions."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            if event.time < 0:
                raise ScheduleError(f"fault event before t=0: {event}")
        self.events = sorted(self.events, key=lambda e: (e.time, e.target, e.action.value))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, time: float, target: str, action: FaultAction, param: float = 1.0) -> "FaultSchedule":
        self.events.append(FaultEvent(time=time, target=target, action=action, param=param))
        self.events.sort(key=lambda e: (e.time, e.target, e.action.value))
        return self

    def subset(self, indices: list[int]) -> "FaultSchedule":
        """A new schedule keeping only the events at ``indices`` (in order)."""
        keep = set(indices)
        return FaultSchedule([e for i, e in enumerate(self.events) if i in keep])

    @property
    def horizon(self) -> float:
        return max((e.time for e in self.events), default=0.0)

    def to_dicts(self) -> list[dict[str, object]]:
        return [e.to_dict() for e in self.events]

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), indent=2)

    @classmethod
    def from_dicts(cls, rows: list[dict[str, object]]) -> "FaultSchedule":
        return cls([FaultEvent.from_dict(row) for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule document is not valid JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise ScheduleError("a schedule JSON document must be a list of events")
        return cls.from_dicts(rows)

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.action.value] = counts.get(event.action.value, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"{len(self.events)} events over {self.horizon:.1f}s ({parts or 'empty'})"


def random_schedule(
    seed: int,
    *,
    events: int = 20,
    horizon: float = 60.0,
) -> FaultSchedule:
    """Derive a whole schedule from ``seed`` — the only RNG in the adversary.

    Targets are the three nodes ``a``-``c`` and the devices with dpids 1-3
    of the default :class:`~repro.adversary.world.AdversaryWorld`.

    The action mix is weighted toward the message-level perturbations the
    paper's nondeterministic bug tail needs (drops, delays, reorders) with a
    steady minority of partitions, kills, and clock skews so cluster-level
    invariants get exercised too.
    """
    import random

    if events < 1:
        raise ReproError("a schedule needs at least one event")
    rng = random.Random(seed)
    nodes = ("a", "b", "c")
    dpids = (1, 2, 3)
    weighted = (
        [FaultAction.DROP] * 4
        + [FaultAction.DELAY] * 3
        + [FaultAction.REORDER] * 2
        + [FaultAction.DUPLICATE] * 2
        + [FaultAction.CORRUPT] * 2
        + [FaultAction.PARTITION] * 2
        + [FaultAction.HEAL] * 1
        + [FaultAction.CLOCK_SKEW] * 2
        + [FaultAction.KILL] * 1
    )
    schedule = FaultSchedule()
    for _ in range(events):
        action = weighted[rng.randrange(len(weighted))]
        at = round(rng.uniform(1.0, horizon * 0.7), 3)
        if action in CHANNEL_ACTIONS:
            if rng.random() < 0.5:
                target = f"node:{nodes[rng.randrange(len(nodes))]}"
            else:
                target = f"dev:{dpids[rng.randrange(len(dpids))]}"
            param = (
                round(rng.uniform(2.0, 12.0), 2)
                if action is FaultAction.DELAY
                else float(rng.randint(1, 3))
            )
        elif action is FaultAction.PARTITION:
            isolated = nodes[rng.randrange(len(nodes))]
            rest = ",".join(n for n in nodes if n != isolated)
            target = f"{isolated}|{rest}"
            param = 0.0
        elif action is FaultAction.HEAL:
            target = "*"
            param = 0.0
        elif action is FaultAction.CLOCK_SKEW:
            target = nodes[rng.randrange(len(nodes))]
            param = round(rng.uniform(2.0, 20.0), 2)
        else:  # KILL
            target = nodes[rng.randrange(len(nodes))]
            param = 0.0
        schedule.add(at, target, action, param)
    return schedule
