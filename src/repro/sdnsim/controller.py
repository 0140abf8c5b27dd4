"""Controller runtime: hosts applications, dispatches control messages.

Failure semantics mirror real controllers:

* an unhandled exception in an app handler marks that app's *component*
  failed; if the app is ``critical`` the whole controller crashes
  (fail-stop), otherwise the controller keeps running degraded (the
  gray-failure mode that dominates the paper's byzantine class);
* northbound API latency follows a worker-pool contention model — with a
  global lock (CORD's Python GIL situation, CORD-1734) adding workers
  *increases* per-call latency instead of dividing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.errors import SimulationError
from repro.sdnsim.clock import EventScheduler
from repro.sdnsim.config import ControllerConfig
from repro.sdnsim.messages import (
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
    PortStatus,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdnsim.datapath import Switch


class App(Protocol):
    """Controller application interface.

    Apps may implement any subset of the hooks; the runtime checks with
    ``hasattr``.  ``name`` identifies the component for liveness tracking.
    """

    name: str
    critical: bool

    def on_start(self, runtime: "ControllerRuntime") -> None: ...


@dataclass
class ErrorRecord:
    """One logged error."""

    time: float
    component: str
    message: str


class ControllerRuntime:
    """The simulated SDN controller."""

    def __init__(
        self,
        scheduler: EventScheduler,
        config: ControllerConfig,
        *,
        api_base_latency: float = 0.010,
        global_lock: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.api_base_latency = api_base_latency
        #: True models a runtime whose workers serialize on a global lock
        #: (CPython GIL) — the CORD-1734 situation.
        self.global_lock = global_lock
        self.apps: list = []
        self.switches: dict[int, "Switch"] = {}
        self.crashed = False
        self.crash_reason: str | None = None
        self.errors: list[ErrorRecord] = []
        self.component_ok: dict[str, bool] = {"forwarding": True}
        self.echo_replies: list[EchoReply] = []
        self.api_latencies: list[float] = []
        self._api_inflight = 0

    # -- wiring --------------------------------------------------------------
    def add_app(self, app) -> None:
        if self.crashed:
            raise SimulationError("cannot add apps to a crashed controller")
        self.apps.append(app)
        self.component_ok[app.name] = True

    def start(self) -> None:
        for app in self.apps:
            self._guarded(app, "on_start", self)

    def register_switch(self, switch: "Switch") -> None:
        self.switches[switch.dpid] = switch

    # -- failure handling -------------------------------------------------------
    def log_error(self, component: str, message: str) -> None:
        self.errors.append(
            ErrorRecord(time=self.scheduler.clock.now, component=component, message=message)
        )

    def _fail_component(self, component: str, message: str, *, critical: bool) -> None:
        self.component_ok[component] = False
        self.log_error(component, message)
        if critical:
            self.crashed = True
            self.crash_reason = f"{component}: {message}"

    def _guarded(self, app, hook: str, *args):
        """Invoke an app hook, converting exceptions into failures.

        Returns the handler's return value; a handler returning ``False``
        vetoes further propagation of the event (used by input validators
        to drop malformed messages before fragile apps see them).
        """
        if self.crashed or not self.component_ok.get(app.name, False):
            return None
        handler = getattr(app, hook, None)
        if handler is None:
            return None
        try:
            return handler(*args)
        except Exception as exc:  # noqa: BLE001 - fault boundary by design
            self._fail_component(
                app.name,
                f"{type(exc).__name__}: {exc}",
                critical=getattr(app, "critical", False),
            )
            return None

    # -- message dispatch -----------------------------------------------------
    def handle_message(self, message) -> None:
        """Southbound entry point: dispatch one control message to apps."""
        if self.crashed:
            return
        if isinstance(message, PacketIn):
            for app in self.apps:
                if self._guarded(app, "on_packet_in", self, message) is False:
                    break  # a validator vetoed the event
        elif isinstance(message, PortStatus):
            for app in self.apps:
                self._guarded(app, "on_port_status", self, message)
        elif isinstance(message, FlowRemoved):
            for app in self.apps:
                self._guarded(app, "on_flow_removed", self, message)
        elif isinstance(message, EchoRequest):
            self.echo_replies.append(
                EchoReply(dpid=message.dpid, sequence=message.sequence)
            )
        else:
            raise SimulationError(f"unhandled message type {type(message).__name__}")

    # -- southbound actions ------------------------------------------------------
    def install_flow(self, flow_mod: FlowMod) -> None:
        """Install a flow, letting apps transform the actions first.

        The transform hook is how the mirror app adds copy-to-mirror-port
        actions to flows other apps install (and where FAUCET-1623's missing
        broadcast case lives).
        """
        if self.crashed:
            return
        actions = flow_mod.actions
        for app in self.apps:
            transform = getattr(app, "transform_actions", None)
            if transform is not None and self.component_ok.get(app.name, False):
                try:
                    actions = tuple(transform(flow_mod.dpid, flow_mod.match, actions))
                except Exception as exc:  # noqa: BLE001
                    self._fail_component(
                        app.name,
                        f"{type(exc).__name__}: {exc}",
                        critical=getattr(app, "critical", False),
                    )
        switch = self._switch(flow_mod.dpid)
        switch.apply_flow_mod(
            FlowMod(
                dpid=flow_mod.dpid,
                match=flow_mod.match,
                actions=actions,
                priority=flow_mod.priority,
                idle_timeout=flow_mod.idle_timeout,
            )
        )

    def send_packet_out(self, packet_out: PacketOut, *, in_port: int) -> None:
        if self.crashed:
            return
        actions = packet_out.actions
        for app in self.apps:
            transform = getattr(app, "transform_packet_out", None)
            if transform is not None and self.component_ok.get(app.name, False):
                try:
                    actions = tuple(
                        transform(packet_out.dpid, packet_out.packet, actions, in_port)
                    )
                except Exception as exc:  # noqa: BLE001
                    self._fail_component(
                        app.name,
                        f"{type(exc).__name__}: {exc}",
                        critical=getattr(app, "critical", False),
                    )
        switch = self._switch(packet_out.dpid)
        switch.execute_actions(packet_out.packet, actions, in_port=in_port)

    def _switch(self, dpid: int) -> "Switch":
        try:
            return self.switches[dpid]
        except KeyError:
            raise SimulationError(f"no switch with dpid {dpid}") from None

    # -- northbound API (worker contention model) ---------------------------------
    def api_call(self, name: str) -> float:
        """Simulate one northbound API call; returns its latency (seconds).

        With ``global_lock`` the worker pool serializes: each additional
        worker adds contention overhead (context switching + lock handoff),
        so latency grows with the pool size — reducing workers to 1 is the
        CORD-1734 fix.  Without the global lock, workers genuinely divide
        the queueing delay.
        """
        if self.crashed:
            raise SimulationError("controller crashed; API unavailable")
        workers = self.config.workers
        if self.global_lock:
            contention = 1.0 + 0.8 * (workers - 1)
            latency = self.api_base_latency * contention
        else:
            latency = self.api_base_latency / min(workers, 8)
        self.api_latencies.append(latency)
        return latency

    # -- health -------------------------------------------------------------------
    @property
    def healthy_components(self) -> list[str]:
        return sorted(c for c, ok in self.component_ok.items() if ok)

    @property
    def failed_components(self) -> list[str]:
        return sorted(c for c, ok in self.component_ok.items() if not ok)
