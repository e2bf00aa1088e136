"""The VSync choreographer (§2.3's access-synchronization mechanism).

Mobile systems pace display work on VSync ticks; it is one of the two
OS-level mechanisms (with buffering) that create the slack intervals the
prefetch engine exploits. :class:`VSyncSource` fires a tick every period
and hands out per-tick waitables.
"""

from __future__ import annotations



from repro.errors import ConfigurationError
from repro.sim import SimEvent, Simulator
from repro.sim.primitives import Waitable
from repro.units import VSYNC_PERIOD_MS


class VSyncSource:
    """A 60 Hz (by default) tick generator.

    ``wait_next()`` returns a waitable for the *next* tick — a process that
    waits immediately after a tick fires sleeps one full period, just like
    a real choreographer callback.
    """

    def __init__(self, sim: Simulator, period: float = VSYNC_PERIOD_MS, offset: float = 0.0):
        if period <= 0:
            raise ConfigurationError("vsync period must be positive")
        self._sim = sim
        self.period = period
        self.ticks = 0
        self._next_event = SimEvent(sim, name="vsync")
        sim.schedule(offset + period, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        event, self._next_event = self._next_event, SimEvent(self._sim, name="vsync")
        event.fire(self._sim.now)
        self._sim.schedule(self.period, self._tick)

    def wait_next(self) -> Waitable:
        """Waitable firing at the next tick, with the tick time as value."""
        return self._next_event

    def next_tick_time(self) -> float:
        """When the next tick will fire (for deadline math)."""
        elapsed = self._sim.now
        periods = int(elapsed / self.period) + 1
        return periods * self.period
