"""The synthetic event source.

:func:`synthetic_event` produces tracker-shaped events at any scale.
Event ``i`` of a stream seeded ``S`` is a pure function of ``(S, i)`` and
nothing else — ``random.Random(f"stream:{S}:{i}")`` — so any sub-range of
the stream can be regenerated independently, in any order, by any process.
That property is what makes checkpointed resume exact: a consumer that
recorded "``n`` wire records consumed" can rebuild the identical remainder
of the stream without replaying the prefix.
"""

from __future__ import annotations

import random
from datetime import date

from repro.stream.events import TrackerEvent

#: Synthetic stream vocabulary: the symptom/root-cause flavored terms the
#: paper's keyword analysis keeps surfacing, so hashed features stay in a
#: realistic distribution.
_VOCAB = (
    "controller crash deadlock timeout flow switch mastership election "
    "quorum partition config yaml vlan acl reload intent link discovery "
    "packet drop latency memory leak thread race lock retry channel "
    "openflow gerrit patch regression restart failover sync byzantine "
    "stale cluster store topology port stats poll gauge faucet onos cord"
).split()

_CONTROLLERS = ("onos", "faucet", "cord")
_SEVERITIES = ("blocker", "critical")
_SYMPTOMS = (
    "byzantine", "crash", "performance", "unable_to_boot", "data_loss",
)
_ROOT_CAUSES = (
    "logic_error", "sync_error", "memory_error", "human_misconfiguration",
    "dependency_error",
)
#: (event_type, cumulative-weight) ladder for the synthetic stream.
_TYPE_LADDER = (
    ("issue-created", 0.22),
    ("issue-updated", 0.42),
    ("issue-commented", 0.70),
    ("gerrit-linked", 0.80),
    ("issue-closed", 1.00),
)

#: Synthetic stream epoch (the study window's first day).
_EPOCH_ORDINAL = date(2017, 1, 1).toordinal()


def synthetic_event(seed: int, index: int, *, pool: int = 5000) -> TrackerEvent:
    """Event ``index`` of the synthetic stream seeded ``seed``.

    Pure function of its arguments: no global RNG, no wall clock, no
    state.  ``pool`` bounds the distinct bug ids (and therefore the
    per-bug register memory of any consumer).
    """
    rng = random.Random(f"stream:{seed}:{index}")
    roll = rng.random()
    for event_type, ceiling in _TYPE_LADDER:
        if roll <= ceiling:
            break
    bug_num = rng.randrange(pool)
    controller = _CONTROLLERS[bug_num % len(_CONTROLLERS)]
    tracker = "github" if controller == "faucet" else "jira"
    # One simulated minute per index keeps event time monotone in the
    # base stream (reordering is the fault injector's job, not ours).
    day = date.fromordinal(_EPOCH_ORDINAL + index // 1440)
    at = f"{day.isoformat()}T{(index // 60) % 24:02d}:{index % 60:02d}:00"
    payload: dict[str, object] = {
        "tokens": rng.sample(_VOCAB, k=rng.randint(4, 9)),
    }
    if event_type == "issue-created":
        payload["severity"] = _SEVERITIES[rng.randrange(2)]
    elif event_type == "issue-closed":
        payload["status"] = "closed"
        payload["labels"] = {
            "symptom": _SYMPTOMS[rng.randrange(len(_SYMPTOMS))],
            "root_cause": _ROOT_CAUSES[rng.randrange(len(_ROOT_CAUSES))],
        }
    elif event_type == "gerrit-linked":
        payload["change_id"] = f"I{rng.getrandbits(40):010x}"
    return TrackerEvent(
        event_type=event_type,
        tracker=tracker,
        bug_id=f"{controller.upper()}-{bug_num:06d}",
        controller=controller,
        at=at,
        payload=payload,
    )
