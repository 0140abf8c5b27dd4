"""Distributed controller cluster: mastership, leader election, failover.

Models the ONOS-style cluster the paper's longest-running bug lives in:
**ONOS-5992** — "killing one ONOS instance resulted in a cluster failure".
The buggy behaviour is a quorum check that counts *configured* members
instead of *live* members: after one instance dies, every mastership
operation believes quorum is lost and the whole cluster wedges.  The fix
counts live members, so an N-1 majority keeps operating and device
mastership fails over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sdnsim.clock import EventScheduler


class InstanceState(enum.Enum):
    """Lifecycle of one cluster member."""

    ACTIVE = "active"
    DEAD = "dead"


@dataclass
class ClusterInstance:
    """One controller instance in the cluster."""

    node_id: str
    state: InstanceState = InstanceState.ACTIVE

    @property
    def is_alive(self) -> bool:
        return self.state is InstanceState.ACTIVE


class ControllerCluster:
    """A small replicated control plane with per-device mastership.

    Parameters
    ----------
    node_ids:
        Cluster membership (static configuration).
    quorum_counts_live_members:
        The ONOS-5992 knob.  ``False`` (buggy) computes quorum against the
        *configured* member count, so a single member death can wedge all
        operations; ``True`` (fixed) computes quorum against *live* members.
    """

    #: Seconds from a member's death to the failover election.
    election_delay = 1.0

    def __init__(
        self,
        node_ids: list[str],
        scheduler: EventScheduler,
        *,
        quorum_counts_live_members: bool = True,
    ) -> None:
        if len(node_ids) < 1:
            raise SimulationError("a cluster needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise SimulationError("duplicate node ids")
        self.scheduler = scheduler
        self.quorum_counts_live_members = quorum_counts_live_members
        self.instances = {nid: ClusterInstance(nid) for nid in node_ids}
        #: The live members, sorted.  ``kill_instance`` is the only writer of
        #: an instance's state, so it is the only one that updates this.
        self._live = sorted(node_ids)
        self.leader: str | None = None
        self.mastership: dict[int, str] = {}  # dpid -> node_id
        self._elect_leader()

    # -- membership ------------------------------------------------------------
    @property
    def configured_size(self) -> int:
        return len(self.instances)

    @property
    def live_members(self) -> list[str]:
        return list(self._live)

    def has_quorum(self) -> bool:
        """True when a majority (of the quorum base) is alive.

        With the buggy base (configured size) a 3-node cluster that loses
        one member still has quorum — but a *second* code path compares
        against strict majority of configured members when any member is
        flagged unreachable, which is what ONOS-5992 tripped over.  We model
        the observable effect directly: with the buggy knob, any dead member
        voids quorum.
        """
        alive = len(self._live)
        if self.quorum_counts_live_members:
            return alive >= (alive // 2) + 1 if alive else False
        if alive < self.configured_size:
            return False  # the ONOS-5992 wedge
        return alive >= (self.configured_size // 2) + 1

    # -- leadership -------------------------------------------------------------
    def _elect_leader(self) -> None:
        live = self._live
        self.leader = live[0] if live and self.has_quorum() else None

    # -- mastership -------------------------------------------------------------
    def assign_mastership(self, dpid: int) -> str:
        """Assign (or reassign) a master for a device; round-robin by load."""
        if not self.has_quorum():
            raise SimulationError("cluster has no quorum; mastership unavailable")
        load: dict[str, int] = {nid: 0 for nid in self._live}
        for master in self.mastership.values():
            if master in load:
                load[master] += 1
        chosen = min(load, key=lambda nid: (load[nid], nid))
        self.mastership[dpid] = chosen
        return chosen

    def master_of(self, dpid: int) -> str | None:
        """Current master, or None if the device is unassigned/orphaned."""
        master = self.mastership.get(dpid)
        if master is None:
            return None
        if not self.instances[master].is_alive:
            return None
        return master

    # -- failures ---------------------------------------------------------------
    def kill_instance(self, node_id: str) -> None:
        """Hard-kill one instance and run failover after the election delay."""
        if node_id not in self.instances:
            raise SimulationError(f"unknown node {node_id!r}")
        self.instances[node_id].state = InstanceState.DEAD
        if node_id in self._live:
            self._live.remove(node_id)

        def failover() -> None:
            self._elect_leader()
            if not self.has_quorum():
                return  # wedged: orphaned devices stay orphaned
            for dpid, master in sorted(self.mastership.items()):
                if not self.instances[master].is_alive:
                    self.assign_mastership(dpid)

        self.scheduler.schedule(self.election_delay, failover)

    def orphaned_devices(self) -> list[int]:
        """Devices whose master is dead and was never failed over."""
        if len(self._live) == len(self.instances):
            return []  # nobody died, so every master is alive
        instances = self.instances
        return sorted(
            dpid
            for dpid, master in self.mastership.items()
            if not instances[master].is_alive
        )

    def is_wedged(self) -> bool:
        """The ONOS-5992 end state: live members exist but no quorum."""
        return bool(self._live) and not self.has_quorum()
