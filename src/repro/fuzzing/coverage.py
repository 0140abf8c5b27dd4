"""Coverage signatures over invariant-monitor state.

AFL's coverage map is branch edges; ours is the behavior of the runtime
invariant monitors.  One adversary run is abstracted into a set of
*coverage tokens*:

* ``edge:<invariant>:<rise|fall>:<c>`` — a monitor edge transition at
  concurrency bucket ``c`` (log2 of how many subjects of that invariant
  were simultaneously violating);
* ``viol:<invariant>:<kind>:<t>:<c>`` — a violation fingerprint: subject
  kind (``dpid``/``cluster``), time-of-run bucket ``t`` (eighths of the
  horizon) and concurrency bucket ``c``;
* ``flap:<invariant>:<b>`` — how often the invariant re-broke after
  clearing (log2-bucketed rise count), the signature of oscillating
  failures;
* ``combo:<inv+inv+...>`` — the set of invariants co-violated in the run.

Buckets keep the token space *bounded* (a 200-switch world must not mint a
token per dpid) yet *graded* (deeper, broader, later failures are distinct
coverage), which is exactly what gives the mutation search a gradient.
Everything is a pure function of a deterministic replay, so the same
schedule always yields the same tokens — bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.world import AdversaryResult

#: Horizon is split into this many violation-time buckets.
TIME_BUCKETS = 8


def _log2_bucket(count: int) -> int:
    """0, 1, 2 ... for counts 1, 2-3, 4-7, ... (capped at 6)."""
    bucket = 0
    while count > 1:
        count //= 2
        bucket += 1
    return min(bucket, 6)


def _subject_kind(subject: str) -> str:
    """``dpid=17`` -> ``dpid``; ``cluster`` -> ``cluster``."""
    return subject.split("=", 1)[0]


@dataclass(frozen=True)
class CoverageSample:
    """The coverage a single run reached."""

    #: Sorted, de-duplicated coverage tokens.
    tokens: tuple[str, ...]
    #: The ``viol:*`` subset — the distinct violation signatures metric.
    violation_signatures: tuple[str, ...]
    #: First invariant observed per violation signature (ddmin targets).
    signature_invariants: dict[str, str]
    violated: bool

    @property
    def signature(self) -> str:
        """Canonical sha256 over the token set (bit-stable)."""
        payload = json.dumps(list(self.tokens), separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_coverage(result: "AdversaryResult", *, horizon: float) -> CoverageSample:
    """Abstract one deterministic replay into its coverage token set."""
    monitors = result.world.monitors
    active: dict[str, int] = {}
    rises: dict[str, int] = {}
    tokens: set[str] = set()
    signatures: set[str] = set()
    sig_invariants: dict[str, str] = {}

    violations = result.violations
    for time, invariant, subject, direction in monitors.transitions:
        if direction == "rise":
            active[invariant] = active.get(invariant, 0) + 1
            rises[invariant] = rises.get(invariant, 0) + 1
            concurrency = _log2_bucket(active[invariant])
            tokens.add(f"edge:{invariant}:rise:{concurrency}")
            tbucket = min(
                int(TIME_BUCKETS * time / horizon) if horizon > 0 else 0,
                TIME_BUCKETS - 1,
            )
            signature = (
                f"viol:{invariant}:{_subject_kind(subject)}:{tbucket}:{concurrency}"
            )
            signatures.add(signature)
            tokens.add(signature)
            sig_invariants.setdefault(signature, invariant)
        else:
            count = max(active.get(invariant, 1) - 1, 0)
            active[invariant] = count
            tokens.add(f"edge:{invariant}:fall:{_log2_bucket(max(count, 1))}")
    for invariant, count in sorted(rises.items()):
        tokens.add(f"flap:{invariant}:{_log2_bucket(count)}")
    combo = "+".join(sorted({v.invariant for v in violations}))
    if combo:
        tokens.add(f"combo:{combo}")
    return CoverageSample(
        tokens=tuple(sorted(tokens)),
        violation_signatures=tuple(sorted(signatures)),
        signature_invariants=sig_invariants,
        violated=bool(violations),
    )
