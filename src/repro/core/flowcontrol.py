"""MIMD flow control: pacing guest dispatch (§3.4, inherited from Trinity).

Because virtual command fences decouple guest drivers from host execution,
a guest can dispatch commands faster than the host retires them, piling
work up in host command queues. Trinity's remedy — adopted by vSoC — is a
Multiplicative-Increase / Multiplicative-Decrease window on in-flight
commands per device:

* every retired command grows the window by ``increase`` (cautiously);
* a dispatch that would exceed the window shrinks it by ``decrease`` and
  blocks until in-flight work drains below the new window.

The window therefore oscillates around the host's service rate, exactly
like a congestion window around path capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ConfigurationError
from repro.sim import SimEvent, Simulator
from repro.sim.primitives import Waitable


class MimdFlowControl:
    """MIMD window limiting commands in flight between guest and host."""

    def __init__(
        self,
        sim: Simulator,
        initial_window: float = 8.0,
        min_window: float = 1.0,
        max_window: float = 256.0,
        increase: float = 1.05,
        decrease: float = 0.7,
    ):
        if not min_window <= initial_window <= max_window:
            raise ConfigurationError("initial window outside [min, max]")
        if not (increase > 1.0 and 0.0 < decrease < 1.0):
            raise ConfigurationError("need increase > 1 and 0 < decrease < 1")
        self._sim = sim
        self.window = initial_window
        self.min_window = min_window
        self.max_window = max_window
        self.increase = increase
        self.decrease = decrease
        self.in_flight = 0
        self._waiters: Deque[SimEvent] = deque()
        # Shared by every dispatch the window admits at once.
        self._granted = SimEvent(sim, name="mimd.dispatch")
        self._granted.fire(None)
        self.throttle_events = 0

    def try_dispatch(self) -> bool:
        """Claim a slot if the window allows; shrink the window if not."""
        if self.in_flight < int(self.window):
            self.in_flight += 1
            return True
        self.window = max(self.min_window, self.window * self.decrease)
        self.throttle_events += 1
        return False

    def dispatch(self) -> Waitable:
        """Waitable that fires once a dispatch slot has been claimed."""
        if self.try_dispatch():
            return self._granted
        event = SimEvent(self._sim, name="mimd.dispatch")
        self._waiters.append(event)
        return event

    def complete(self) -> None:
        """A command retired on the host: grow the window, admit a waiter."""
        if self.in_flight <= 0:
            raise ConfigurationError("complete() without a matching dispatch")
        self.in_flight -= 1
        self.window = min(self.max_window, self.window * self.increase)
        while self._waiters and self.in_flight < int(self.window):
            self.in_flight += 1
            self._waiters.popleft().fire(None)

    @property
    def backlog(self) -> int:
        """Dispatches currently blocked on the window."""
        return len(self._waiters)

    def snapshot_state(self) -> dict:
        """Deterministic, JSON-able image of the window state."""
        return {
            "window": self.window,
            "in_flight": self.in_flight,
            "throttle_events": self.throttle_events,
            "backlog": self.backlog,
        }
