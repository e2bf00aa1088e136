"""Frozen pre-optimization kernel — the oracle of ``test_sim_resume_oracle``.

This module is a verbatim-behavior copy of the simulation kernel's hot
path (``Simulator`` / ``Process`` / ``ScheduledCall``) as it stood
*before* the hot-path optimization pass:

* no ``__slots__`` on ``Process``
* ``isinstance`` dispatch in ``Process._step`` (no exact-type fast path)
* ``Simulator.run`` delegates to ``step()`` per event (no inlined loop)
* ``pending_events`` is an O(heap) scan; finished processes are retained

``tests/test_sim_resume_oracle.py`` uses it as the oracle for the live
kernel's in-place resume: this copy round-trips every resume through the
heap. Nothing else may import it; it is not part of the simulation API
and receives no new features.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError


class Waitable:
    def add_callback(self, fn: Callable[..., None]) -> None:
        raise NotImplementedError


class Timeout:
    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value


class SimEvent(Waitable):
    def __init__(self, sim: Any, name: str = "event"):
        self._sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[..., None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._sim.schedule(0.0, fn, value, None)

    def add_callback(self, fn: Callable[..., None]) -> None:
        if self.fired:
            self._sim.schedule(0.0, fn, self.value, self._exception)
        else:
            self._callbacks.append(fn)


class ScheduledCall:
    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Process(Waitable):
    def __init__(self, sim: "Simulator", gen, name: str = "process"):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.alive = True
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: List[Callable[..., None]] = []

    def add_callback(self, fn: Callable[..., None]) -> None:
        if not self.alive:
            self._sim.schedule(0.0, fn, self.value, self.exception)
        else:
            self._callbacks.append(fn)

    def _start(self) -> None:
        self._step(None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        hooks = self._sim._hooks
        if hooks:
            for hook in hooks:
                hook.on_process_resume(self._sim.now, self)
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(None, err)
            return

        if hooks:
            for hook in hooks:
                hook.on_process_yield(self._sim.now, self, target)
        if isinstance(target, Timeout):
            self._sim.schedule(target.delay, self._step, target.value, None)
        elif isinstance(target, Waitable):
            target.add_callback(self._step)
        else:
            bad = SimulationError(
                f"process {self.name!r} yielded {target!r}; expected a Waitable or Timeout"
            )
            self._finish(None, bad)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self.alive = False
        self.value = value
        self.exception = exc
        callbacks, self._callbacks = self._callbacks, []
        if exc is not None and not callbacks:
            self._sim._note_failure(self, exc)
        for fn in callbacks:
            self._sim.schedule(0.0, fn, value, exc)


class Simulator:
    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, ScheduledCall]] = []
        self._processes: List[Process] = []
        self._failure: Optional[Tuple[Process, BaseException]] = None
        self._hooks: List[Any] = []

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        call = ScheduledCall(self._now + delay, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (call.time, self._seq, call))
        return call

    def spawn(self, gen, name: str = "process") -> Process:
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        self.schedule(0.0, proc._start)
        return proc

    def step(self) -> bool:
        while self._heap:
            time, _seq, call = heapq.heappop(self._heap)
            if call.cancelled:
                continue
            if time < self._now:
                raise SimulationError("event heap time went backwards")
            self._now = time
            if self._hooks:
                for hook in self._hooks:
                    hook.on_event_dispatch(time, call)
            call.fn(*call.args)
            self._raise_pending_failure()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        while self._heap:
            time, _seq, call = self._heap[0]
            if call.cancelled:
                # Drop it here: ``step`` would skip it and dispatch the next
                # live entry, even one past ``until``.
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                break
            self.step()
        if until is not None and self._now < until:
            self._now = until

    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = (proc, exc)

    def _raise_pending_failure(self) -> None:
        if self._failure is not None:
            proc, exc = self._failure
            self._failure = None
            raise SimulationError(f"process {proc.name!r} failed") from exc

    def pending_events(self) -> int:
        return sum(1 for _t, _s, c in self._heap if not c.cancelled)
