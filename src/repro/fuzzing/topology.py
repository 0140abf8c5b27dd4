"""Parameterized control-plane topologies: the fuzzer's world generator.

The hand-wired 3-node :class:`~repro.adversary.world.AdversaryWorld` is a
microscope; the paper's §V-A takeaway ("testing environments lack
representative failures and equipment") needs a telescope.  A
:class:`Topology` scales the same world to N controllers × M switches × K
workload flows and — crucially for the mutation operators — carries a
*structured* partition vocabulary: ring topologies cut contiguous arcs,
stars isolate the hub or a leaf cluster, fat-tree-ish layouts cut whole
pods.  Random node-isolation (what :func:`random_schedule` does) only ever
explores one partition shape; the structured specs are where the
coverage-guided search finds the partitions real deployments see.

Everything is derived from ``(kind, controllers, switches, seed)`` — two
calls with the same parameters produce identical topologies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import FuzzError

TOPOLOGY_KINDS = ("ring", "star", "fattree")

#: Cap on enumerated partition specs so huge worlds keep a bounded,
#: seed-stable mutation vocabulary.
_MAX_PARTITION_SPECS = 16


@dataclass(frozen=True)
class Topology:
    """One parameterized control plane the fuzzer perturbs."""

    kind: str
    nodes: tuple[str, ...]
    dpids: tuple[int, ...]
    flows: int
    #: Structured partition specs (``"a,b|c,d"``) the mutators draw from.
    partition_specs: tuple[str, ...]
    #: What :meth:`channel_targets` returns, built once per topology.
    _channels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        channels = tuple(f"node:{n}" for n in self.nodes) + tuple(
            f"dev:{d}" for d in self.dpids
        )
        object.__setattr__(self, "_channels", channels)

    @property
    def controllers(self) -> int:
        return len(self.nodes)

    @property
    def switches(self) -> int:
        return len(self.dpids)

    def channel_targets(self) -> tuple[str, ...]:
        """Every interposer channel a message-level action can arm."""
        return self._channels

    def summary(self) -> str:
        return (
            f"{self.kind}: {self.controllers} controllers x "
            f"{self.switches} switches x {self.flows} flows "
            f"({len(self.partition_specs)} partition cuts)"
        )


def _spec(group: list[str], nodes: tuple[str, ...]) -> str:
    """Partition spec isolating ``group`` from the rest of the cluster."""
    rest = [n for n in nodes if n not in set(group)]
    return ",".join(group) + "|" + ",".join(rest)


def _ring_specs(nodes: tuple[str, ...], rng: random.Random) -> list[str]:
    """Contiguous arcs of the ring cut off from the remainder."""
    n = len(nodes)
    cuts: list[str] = []
    seen: set[tuple[str, ...]] = set()
    arcs = [(start, length) for length in range(1, n // 2 + 1) for start in range(n)]
    rng.shuffle(arcs)
    for start, length in arcs:
        arc = [nodes[(start + i) % n] for i in range(length)]
        key = tuple(sorted(arc))
        if key in seen or len(arc) == n:
            continue
        seen.add(key)
        cuts.append(_spec(arc, nodes))
        if len(cuts) >= _MAX_PARTITION_SPECS:
            break
    return cuts


def _star_specs(nodes: tuple[str, ...], rng: random.Random) -> list[str]:
    """Hub isolation, single-leaf drops, and hub+leaf splits."""
    hub, leaves = nodes[0], list(nodes[1:])
    cuts = [_spec([hub], nodes)]
    picked = list(leaves)
    rng.shuffle(picked)
    for leaf in picked[: _MAX_PARTITION_SPECS // 2]:
        cuts.append(_spec([leaf], nodes))
    for leaf in picked[_MAX_PARTITION_SPECS // 2 :][: _MAX_PARTITION_SPECS // 4]:
        cuts.append(_spec([hub, leaf], nodes))
    return cuts[:_MAX_PARTITION_SPECS]


def _fattree_specs(nodes: tuple[str, ...], rng: random.Random) -> list[str]:
    """Pod cuts: controllers grouped into ~sqrt(N) pods; cut pods and
    pod-pairs off the spine."""
    n = len(nodes)
    pod_size = max(2, int(math.isqrt(n)))
    pods = [list(nodes[i : i + pod_size]) for i in range(0, n, pod_size)]
    cuts = [_spec(pod, nodes) for pod in pods if len(pod) < n]
    pairs = [(i, j) for i in range(len(pods)) for j in range(i + 1, len(pods))]
    rng.shuffle(pairs)
    for i, j in pairs:
        group = pods[i] + pods[j]
        if len(group) < n:
            cuts.append(_spec(group, nodes))
        if len(cuts) >= _MAX_PARTITION_SPECS:
            break
    return cuts[:_MAX_PARTITION_SPECS]


def build_topology(
    kind: str,
    *,
    controllers: int,
    switches: int,
    flows: int | None = None,
    seed: int = 0,
) -> Topology:
    """Derive a whole topology from its parameters (seed-stable)."""
    if kind not in TOPOLOGY_KINDS:
        raise FuzzError(
            f"unknown topology kind {kind!r} (known: {', '.join(TOPOLOGY_KINDS)})"
        )
    if controllers < 2:
        raise FuzzError("a topology needs at least two controllers")
    if switches < 1:
        raise FuzzError("a topology needs at least one switch")
    if flows is not None and flows < 1:
        raise FuzzError("flows must be >= 1 when given")
    # String seeding is PYTHONHASHSEED-independent (unlike hash()).
    rng = random.Random(f"topology:{kind}:{controllers}:{switches}:{seed}")
    nodes = tuple(f"c{i:02d}" for i in range(controllers))
    dpids = tuple(range(1, switches + 1))
    builders = {"ring": _ring_specs, "star": _star_specs, "fattree": _fattree_specs}
    specs = builders[kind](nodes, rng)
    return Topology(
        kind=kind,
        nodes=nodes,
        dpids=dpids,
        flows=flows if flows is not None else switches,
        partition_specs=tuple(specs),
    )
