"""Message interposition: the adversary's hook into every control channel.

One :class:`MessageInterposer` sits in front of one delivery endpoint (a
controller node's inbox, a device's southbound port).  All control traffic
to that endpoint goes through :meth:`feed`, where armed fault rules —
drop / duplicate / delay / reorder / corrupt, plus partition cuts — are
applied before the message is handed to the real deliver callback via the
discrete-event scheduler.  Everything runs on the sim clock, so a schedule
replays bit-for-bit.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.adversary.schedule import CHANNEL_ACTIONS, FaultAction
from repro.errors import ReproError
from repro.sdnsim.clock import EventScheduler

#: How long a reorder rule may hold a message waiting for a successor to
#: overtake it before it is flushed anyway (so held messages cannot leak).
REORDER_FLUSH_AFTER = 5.0


class MessageInterposer:
    """Fault-rule pipeline in front of one delivery endpoint.

    Parameters
    ----------
    scheduler:
        The scenario's event scheduler; all deliveries are scheduled events.
    deliver:
        The real endpoint; called with ``(message, source)``.
    name:
        Channel name, matched against :class:`FaultEvent` targets.
    reachable:
        Partition oracle: ``reachable(source)`` — False drops the message
        (a cut link), recorded separately from DROP rules.
    corrupter:
        Domain-specific mutation for CORRUPT rules; returning ``None``
        drops the message instead (an unparseable frame).

    The interposer keeps these hooks for its whole life and puts every
    delivery on the scheduler, so a hook must not hold what holds the
    interposer: a method of the endpoint's own state, not a closure over
    the world around it, or every world becomes a reference cycle.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        deliver: Callable[[Any, str | None], None],
        *,
        name: str,
        reachable: Callable[[str | None], bool] | None = None,
        corrupter: Callable[[Any], Any | None] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.deliver = deliver
        self.name = name
        self.reachable = reachable
        self.corrupter = corrupter
        self._drop_budget = 0
        self._dup_budget = 0
        self._delay_budget = 0
        self._delay_by = 0.0
        self._reorder_budget = 0
        self._held: tuple[Any, str | None] | None = None
        self._corrupt_budget = 0

    # -- rule arming -----------------------------------------------------------
    def arm(self, action: FaultAction, param: float) -> None:
        """Arm a message-level rule; budgets accumulate."""
        if action not in CHANNEL_ACTIONS:
            raise ReproError(f"{action.value} is not a channel action")
        if action is FaultAction.DROP:
            self._drop_budget += max(1, int(param))
        elif action is FaultAction.DUPLICATE:
            self._dup_budget += max(1, int(param))
        elif action is FaultAction.DELAY:
            self._delay_budget += 1
            self._delay_by = max(self._delay_by, float(param))
        elif action is FaultAction.REORDER:
            self._reorder_budget += max(1, int(param))
        elif action is FaultAction.CORRUPT:
            self._corrupt_budget += max(1, int(param))

    # -- the pipeline -----------------------------------------------------------
    def feed(self, message: Any, source: str | None = None) -> None:
        """Run one message through the armed rules toward delivery."""
        if self.reachable is not None and not self.reachable(source):
            return
        if self._drop_budget > 0:
            self._drop_budget -= 1
            return
        if self._corrupt_budget > 0:
            self._corrupt_budget -= 1
            mutated = self.corrupter(message) if self.corrupter is not None else None
            if mutated is None:
                return
            message = mutated
        if self._dup_budget > 0:
            self._dup_budget -= 1
            self._ship(message, source)
            self._ship(message, source)
            return
        if self._delay_budget > 0:
            self._delay_budget -= 1
            self._ship(message, source, self._delay_by)
            return
        if self._reorder_budget > 0 and self._held is None:
            self._reorder_budget -= 1
            self._held = (message, source)
            self.scheduler.schedule(REORDER_FLUSH_AFTER, self._flush_held)
            return
        self._ship(message, source)
        if self._held is not None:
            held, held_source = self._held
            self._held = None
            self._ship(held, held_source)

    def _flush_held(self) -> None:
        """Deliver a held message that never saw a successor overtake it."""
        if self._held is None:
            return
        held, source = self._held
        self._held = None
        self._ship(held, source)

    def _ship(self, message: Any, source: str | None, delay: float = 0.0) -> None:
        self.scheduler.schedule(delay, partial(self.deliver, message, source))
