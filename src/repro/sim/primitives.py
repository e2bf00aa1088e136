"""Synchronization primitives for simulation processes.

Everything a process can ``yield`` is a :class:`Waitable` (except
:class:`Timeout`, which the kernel special-cases for speed). Each primitive
mirrors a construct the real vSoC implementation relies on:

* :class:`Timeout` — modelled latency (a bus transfer, a decode, a VM exit).
* :class:`SimEvent` — one-shot completion notification (an emulated
  interrupt, a fence signal).
* :class:`Semaphore` / :class:`Mutex` — host-side locks guarding shared
  device state.
* :class:`FifoQueue` — command queues between guest drivers and host device
  executors (§3.4 of the paper).

A grant that needs no wait (an uncontended acquire, a put with room) is
one pre-fired :class:`SimEvent` per primitive, shared by every such grant:
it allocates nothing. A grant that waits gets its own event, woken FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Union

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.kernel import Process

#: What a waitable wakes: a waiting process, which the kernel resumes, or
#: a plain callback, which it calls as ``fn(value, exception)``.
Callback = Union["Process", Callable[[Any, Optional[BaseException]], None]]


class Waitable:
    """Protocol for objects a process may ``yield``.

    Implementations deliver each registered callback exactly once, by
    appending ``(callback, value, exception)`` to the simulator's same-time
    lane: the kernel resumes a waiting process from there and calls any
    other callback. A waitable that has already fired still delivers
    through the lane, so that resume order stays deterministic.
    """

    __slots__ = ()

    def add_callback(self, fn: Callback) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Timeout:
    """Suspend the yielding process for ``delay`` milliseconds.

    ``value`` is returned from the ``yield`` expression on resume, which is
    occasionally handy for pipelining (`result = yield Timeout(cost, result)`).

    The kernel recognises a timeout by its exact type, so ``Timeout`` cannot
    be subclassed: a subclass fails where it is defined, not at its first
    yield.
    """

    __slots__ = ("delay", "value")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        raise TypeError("Timeout cannot be subclassed: the kernel matches its exact type")

    def __init__(self, delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay:.6g})"


class SimEvent(Waitable):
    """A one-shot event: fires once with a value, waking all waiters.

    Late waiters (subscribing after :meth:`fire`) are woken immediately
    (next event-loop turn) with the stored value — the semantics of checking
    an already-signalled fence. Every wake-up joins the simulator's
    same-time lane directly, without a :class:`~repro.sim.kernel.ScheduledCall`.
    """

    __slots__ = ("_sim", "name", "fired", "value", "_exception", "_callbacks")

    def __init__(self, sim: Any, name: str = "event"):
        self._sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callback] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every waiter with ``value``."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:  # an event nobody waits on keeps its empty list
            self._callbacks = []
            lane = self._sim._lane
            for fn in callbacks:
                lane.append((fn, value, None))

    def fail(self, exc: BaseException) -> None:
        """Fire the event with an exception; waiters see it at their yield."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            lane = self._sim._lane
            for fn in callbacks:
                lane.append((fn, None, exc))

    def add_callback(self, fn: Callback) -> None:
        if self.fired:
            self._sim._lane.append((fn, self.value, self._exception))
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Semaphore:
    """Counting semaphore with FIFO wakeup order.

    ``yield sem.acquire()`` suspends until a permit is available;
    :meth:`release` returns a permit. FIFO ordering keeps device command
    execution deterministic under contention.
    """

    def __init__(self, sim: Any, permits: int, name: str = "semaphore"):
        if permits < 0:
            raise SimulationError("semaphore permits must be >= 0")
        self._sim = sim
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self._granted = SimEvent(sim, name=self._acquire_name)
        self._granted.fire(None)
        self._permits = permits
        self._waiters: Deque[SimEvent] = deque()

    @property
    def available(self) -> int:
        """Number of permits currently free."""
        return self._permits

    def acquire(self) -> Waitable:
        """Return a waitable that fires once a permit has been granted."""
        if self._permits > 0:
            self._permits -= 1
            return self._granted
        event = SimEvent(self._sim, name=self._acquire_name)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a permit, waking the longest-waiting acquirer if any."""
        if self._waiters:
            self._waiters.popleft().fire(None)
        else:
            self._permits += 1

    def cancel(self, grant: SimEvent) -> None:
        """Withdraw an :meth:`acquire` whose process was killed at its yield.

        A grant still queued is dropped, so a later :meth:`release` cannot
        hand the permit to a process that will never return it; a grant
        that already fired holds a permit, which is passed on.
        """
        if grant.fired:
            self.release()
        else:
            self._waiters.remove(grant)


class Mutex(Semaphore):
    """Binary semaphore — a host-side lock."""

    def __init__(self, sim: Any, name: str = "mutex"):
        super().__init__(sim, permits=1, name=name)


class FifoQueue:
    """A FIFO channel between processes, optionally bounded.

    Models the per-device command queues of §3.4: guest drivers ``put``
    commands, host executor threads ``get`` them. With a capacity set,
    ``put`` blocks when the queue is full (back-pressure — the role the MIMD
    flow-control algorithm plays in vSoC).
    """

    def __init__(self, sim: Any, capacity: Optional[int] = None, name: str = "queue"):
        if capacity is not None and capacity <= 0:
            raise SimulationError("queue capacity must be positive or None")
        self._sim = sim
        self.name = name
        self._put_name = f"{name}.put"
        self._get_name = f"{name}.get"
        self._accepted = SimEvent(sim, name=self._put_name)
        self._accepted.fire(None)
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Waitable:
        """Enqueue ``item``; the returned waitable fires once it is accepted."""
        if self._getters:
            # Hand the item straight to the longest-waiting consumer.
            self._getters.popleft().fire(item)
            return self._accepted
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return self._accepted
        event = SimEvent(self._sim, name=self._put_name)
        event.value = item  # parked until space frees up
        self._putters.append(event)
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the queue is full."""
        if self._getters:
            self._getters.popleft().fire(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Waitable:
        """Dequeue one item; the returned waitable fires with the item."""
        event = SimEvent(self._sim, self._get_name)
        items = self._items
        if items:
            # A fresh event has no waiter to wake: firing it is two stores.
            event.value = items.popleft()
            event.fired = True
            if self._putters:
                self._admit_parked_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self):
        """Non-blocking dequeue; returns the item or ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_parked_putter()
        return item

    def _admit_parked_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self._items) < self.capacity):
            putter = self._putters.popleft()
            self._items.append(putter.value)
            putter.value = None
            putter.fire(None)

    def reset(self) -> List[Any]:
        """Flush the queue for device-crash recovery; returns the lost items.

        Everything pending is returned to the caller so it can be cancelled:
        queued items plus the items of parked (blocked) putters. Parked
        putters are woken — their put "succeeded" into a queue whose contents
        are about to be discarded, which matches a real device dropping its
        ring buffer. Outstanding getter events are dropped without firing:
        they belong to a killed executor, and letting them linger would
        silently swallow the first items put after recovery.
        """
        lost: List[Any] = list(self._items)
        self._items.clear()
        while self._putters:
            putter = self._putters.popleft()
            lost.append(putter.value)
            putter.value = None
            putter.fire(None)
        self._getters.clear()
        return lost
