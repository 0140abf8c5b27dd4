"""Optical access devices (OLT/ONU) behind a VOLTHA-like adapter.

Models the hardware-reboot bug class the paper highlights (SS V-A): VOL-549,
where the VOLTHA core thread gets stuck waiting for the adapter to connect
if the OLT reboots after initial activation — fixed by adding a timeout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sdnsim.clock import EventScheduler


class OltState(enum.Enum):
    """Lifecycle of an optical line terminal."""

    OFFLINE = "offline"
    ACTIVATING = "activating"
    ACTIVE = "active"
    REBOOTING = "rebooting"


@dataclass
class OnuDevice:
    """An optical network unit hanging off an OLT port."""

    serial: str
    olt_port: int
    is_active: bool = False


class OltDevice:
    """An optical line terminal with attached ONUs."""

    #: Simulated seconds from reboot to ready.
    boot_delay = 2.0

    def __init__(self, device_id: str) -> None:
        self.device_id = device_id
        self.state = OltState.OFFLINE
        self.onus: list[OnuDevice] = []

    def attach_onu(self, onu: OnuDevice) -> None:
        self.onus.append(onu)

    def power_on(self, scheduler: EventScheduler, on_ready) -> None:
        """Begin booting; ``on_ready`` fires after ``boot_delay``."""
        self.state = OltState.ACTIVATING

        def ready() -> None:
            # A reboot that started during activation wins.
            if self.state is OltState.ACTIVATING:
                self.state = OltState.ACTIVE
                on_ready()

        scheduler.schedule(self.boot_delay, ready)

    def reboot(self, scheduler: EventScheduler, on_ready) -> None:
        """Unplanned reboot: drops to REBOOTING, comes back after delay.

        Crucially, a rebooted OLT does *not* re-send the original connect
        indication by itself — the adapter must re-activate it.  That gap is
        what VOL-549 is about.
        """
        self.state = OltState.REBOOTING
        for onu in self.onus:
            onu.is_active = False

        def ready() -> None:
            if self.state is OltState.REBOOTING:
                self.state = OltState.ACTIVE
                on_ready()

        scheduler.schedule(self.boot_delay, ready)


class VolthaAdapter:
    """The adapter layer between the SDN controller and optical hardware.

    ``activate`` powers an OLT and *waits* for its connect indication.  With
    ``connect_timeout=None`` (the buggy configuration) a reboot arriving
    after initial activation leaves the core waiting forever — the stall of
    VOL-549.  With a timeout the adapter notices and re-activates.
    """

    def __init__(
        self, scheduler: EventScheduler, *, connect_timeout: float | None = None
    ) -> None:
        self.scheduler = scheduler
        self.connect_timeout = connect_timeout
        self.olts: dict[str, OltDevice] = {}
        self.waiting_for: set[str] = set()
        self.activated: set[str] = set()
        self.timeouts_fired: int = 0

    @property
    def core_blocked(self) -> bool:
        """True while the core is stuck waiting on any device."""
        return bool(self.waiting_for)

    def manage(self, olt: OltDevice) -> None:
        if olt.device_id in self.olts:
            raise SimulationError(f"OLT {olt.device_id} already managed")
        self.olts[olt.device_id] = olt

    def activate(self, device_id: str) -> None:
        """Power on an OLT and wait for its connect indication."""
        olt = self._olt(device_id)
        self.waiting_for.add(device_id)
        olt.power_on(self.scheduler, lambda: self._on_connect(device_id))
        self._arm_timeout(device_id)

    def _arm_timeout(self, device_id: str) -> None:
        if self.connect_timeout is None:
            return

        def check() -> None:
            if device_id in self.waiting_for:
                # Timed out waiting: re-activate the device (the VOL-549 fix).
                self.timeouts_fired += 1
                olt = self._olt(device_id)
                olt.power_on(self.scheduler, lambda: self._on_connect(device_id))
                self._arm_timeout(device_id)

        self.scheduler.schedule(self.connect_timeout, check)

    def _on_connect(self, device_id: str) -> None:
        self.waiting_for.discard(device_id)
        self.activated.add(device_id)
        for onu in self._olt(device_id).onus:
            onu.is_active = True

    def notify_reboot(self, device_id: str) -> None:
        """Hardware rebooted underneath us: we are waiting again.

        The buggy adapter waits for a connect indication the OLT will never
        spontaneously send; only a timeout (if configured) recovers.
        """
        olt = self._olt(device_id)
        self.activated.discard(device_id)
        self.waiting_for.add(device_id)
        olt.reboot(self.scheduler, lambda: None)  # OLT boots but stays silent
        self._arm_timeout(device_id)

    def _olt(self, device_id: str) -> OltDevice:
        try:
            return self.olts[device_id]
        except KeyError:
            raise SimulationError(f"unknown OLT {device_id!r}") from None
