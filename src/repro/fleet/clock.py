"""Deterministic virtual time for the asyncio control plane.

The fleet service is asyncio code — coroutines for the arrival feeder,
worker run loops, the supervisor, and the control loop — but production
emulator farms are judged on *simulated* time, and CI needs every run to
be reproducible bit for bit. :class:`VirtualClock` squares that circle:
it owns a monotonically advancing virtual clock (milliseconds, matching
:class:`repro.sim.Simulator`) and a timer heap, and it pumps the asyncio
event loop **to quiescence between timer firings**. No coroutine ever
touches the wall clock; ``await clock.sleep(5.0)`` parks the task until
the pump reaches ``now + 5.0``.

Determinism rests on two properties:

* timers fire strictly in ``(time, insertion-seq)`` order, one at a time,
  and the loop is drained (every woken task either finishes or parks
  again) before the next timer fires;
* asyncio's ready queue is FIFO, so a fixed firing order yields a fixed
  task interleaving.

The drain ("settle") protocol needs to know when every task is parked.
The clock therefore tracks a *runnable* count: ``spawn`` increments it,
parking on a clock primitive decrements it, firing a timer that wakes a
task re-increments it, and task completion decrements it. Fleet code must
only block through clock primitives (:meth:`sleep`, :meth:`wait`,
:class:`FleetEvent`); blocking on a foreign awaitable would leave the
runnable count high and trip the settle limit with a loud
:class:`~repro.errors.FleetError` instead of hanging CI.

``schedule(delay, fn, *args)`` mirrors ``Simulator.schedule`` (cancelable
handle, callback at ``now + delay``), which is exactly the surface
:class:`repro.sim.resilience.Deadline` needs — so the supervisor arms its
drain deadlines with the same watchdog class the copy planner uses.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import FleetError

#: Upper bound on settle iterations between two timer firings. A chain of
#: synchronous wake-ups this long means a task is blocked on a non-clock
#: awaitable (or two tasks ping-pong without advancing time) — a bug.
SETTLE_LIMIT = 100_000


class ClockHandle:
    """Cancelable handle for one scheduled callback (``Simulator`` idiom)."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class VirtualClock:
    """Virtual-time timer heap driving an asyncio loop deterministically."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, ClockHandle]] = []
        self._seq = 0
        self._tasks: List["asyncio.Task[Any]"] = []
        self._runnable = 0
        self._parked: set = set()
        self.failures: List[Tuple[str, BaseException]] = []
        self.timers_fired = 0

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ClockHandle:
        """Run ``fn(*args)`` at ``now + delay`` virtual ms; returns a handle."""
        if delay < 0:
            raise FleetError(f"cannot schedule into the past (delay={delay})")
        handle = ClockHandle(self.now + delay, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (handle.time, self._seq, handle))
        return handle

    def spawn(self, coro: Any, name: str = "task") -> "asyncio.Task[Any]":
        """Track a coroutine as a fleet task (counts toward settle)."""
        task = asyncio.ensure_future(coro)
        try:
            task.set_name(name)
        except AttributeError:  # pragma: no cover - 3.7 compat path
            pass
        self._runnable += 1
        task.add_done_callback(self._on_task_done)
        self._tasks.append(task)
        return task

    def _on_task_done(self, task: "asyncio.Task[Any]") -> None:
        if task in self._parked:
            # Cancelled while parked: it never became runnable again.
            self._parked.discard(task)
        else:
            self._runnable -= 1
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            name = task.get_name() if hasattr(task, "get_name") else "task"
            self.failures.append((name, exc))

    # -- blocking primitives -------------------------------------------------
    async def _park(self, fut: "asyncio.Future[Any]") -> Any:
        task = asyncio.current_task()
        self._runnable -= 1
        self._parked.add(task)
        try:
            return await fut
        finally:
            self._parked.discard(task)

    def _wake(self, fut: "asyncio.Future[Any]", value: Any = None,
              exc: Optional[BaseException] = None) -> None:
        if fut.done():
            return
        self._runnable += 1
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(value)

    async def sleep(self, delay_ms: float) -> None:
        """Park the current task for ``delay_ms`` of virtual time."""
        if delay_ms <= 0:
            await asyncio.sleep(0)
            return
        fut = asyncio.get_event_loop().create_future()
        self.schedule(delay_ms, self._wake, fut)
        await self._park(fut)

    async def wait(self, waitable: Any) -> Any:
        """Await a sim-style waitable (``add_callback(fn(value, exc))``)."""
        fut = asyncio.get_event_loop().create_future()
        waitable.add_callback(lambda value, exc: self._wake(fut, value, exc))
        return await self._park(fut)

    # -- the pump ------------------------------------------------------------
    async def _settle(self) -> None:
        spins = 0
        while self._runnable > 0:
            spins += 1
            if spins > SETTLE_LIMIT:
                raise FleetError(
                    f"virtual clock failed to settle after {SETTLE_LIMIT} "
                    f"iterations at t={self.now:.3f} ms — a task is blocked "
                    "on a non-clock awaitable"
                )
            await asyncio.sleep(0)

    async def run_until(self, t_end: float) -> None:
        """Advance virtual time to ``t_end``, firing due timers in order."""
        await self._settle()
        while self._heap and self._heap[0][0] <= t_end:
            time_ms, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if time_ms > self.now:
                self.now = time_ms
            self.timers_fired += 1
            handle.fn(*handle.args)
            await self._settle()
        if t_end > self.now:
            self.now = t_end
        await self._settle()

    def pending_timers(self) -> int:
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def raise_task_failures(self) -> None:
        """Re-raise the first background-task failure, if any."""
        if self.failures:
            name, exc = self.failures[0]
            raise FleetError(f"fleet task {name!r} crashed: {exc!r}") from exc


class FleetEvent:
    """One-shot clock-aware event (the asyncio face of ``SimEvent``)."""

    __slots__ = ("_clock", "name", "fired", "value", "_waiters")

    def __init__(self, clock: VirtualClock, name: str = "event"):
        self._clock = clock
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: List["asyncio.Future[Any]"] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise FleetError(f"fleet event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            self._clock._wake(fut, value)

    async def wait(self) -> Any:
        if self.fired:
            await asyncio.sleep(0)
            return self.value
        fut = asyncio.get_event_loop().create_future()
        self._waiters.append(fut)
        return await self._clock._park(fut)
