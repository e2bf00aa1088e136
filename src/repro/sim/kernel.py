"""The discrete-event simulation kernel: clock, event queue, and processes.

Design
------
The kernel is a classic event-queue simulator. Time is a ``float`` in
milliseconds (see :mod:`repro.units`). Two execution styles coexist:

* **Callbacks** — :meth:`Simulator.schedule` runs a plain function at a
  future simulated time. Used for one-shot timers (VSync ticks, watchdogs).
* **Processes** — :meth:`Simulator.spawn` drives a generator coroutine.
  A process ``yield``\\ s *waitables* (:class:`~repro.sim.primitives.Timeout`,
  :class:`~repro.sim.primitives.SimEvent`, another :class:`Process`, ...)
  and is resumed when the waitable fires, receiving the waitable's value as
  the result of the ``yield`` expression. This is how device executors,
  guest drivers and app pipelines are written.

Determinism
-----------
Events scheduled for the same timestamp run in scheduling order (a
monotonically increasing sequence number breaks ties). No wall-clock or
unseeded randomness is ever consulted, so a run is a pure function of its
inputs — tests assert trace-for-trace reproducibility.

Error handling
--------------
An exception escaping a process is captured and re-raised from
:meth:`Simulator.run` (fail fast). Processes waiting on a failed process
observe the same exception at their ``yield``.

Observability hooks
-------------------
:meth:`Simulator.add_hook` registers a :class:`SimHook`-shaped observer.
Hooks see every event dispatch (``on_event_dispatch``), every process
resumption (``on_process_resume``) and every process yield
(``on_process_yield`` — including the waitable/timeout yielded, which is
how :class:`repro.obs.profile.SelfProfiler` attributes simulated time to
devices and subsystems). Hooks are pure observers: they must not schedule
or mutate, and with none registered the kernel pays a single attribute
check per dispatch.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.primitives import SimEvent, Timeout, Waitable

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")

ProcessGenerator = Generator[Any, Any, Any]


class SimHook:
    """Observer interface for kernel events (subclass what you need).

    All callbacks receive the simulated time first. They run synchronously
    inside the kernel and must neither block nor mutate simulator state.
    """

    def on_event_dispatch(self, time: float, call: "ScheduledCall") -> None:
        """An event popped off the heap is about to run."""

    def on_process_resume(self, time: float, process: "Process") -> None:
        """A process generator is about to be stepped."""

    def on_process_yield(self, time: float, process: "Process", target: Any) -> None:
        """A process yielded ``target`` (a Waitable or Timeout)."""


class ScheduledCall:
    """Handle for a callback registered with :meth:`Simulator.schedule`.

    Supports cancellation: a cancelled call stays in the heap but is
    skipped when popped (lazy deletion), which keeps ``cancel`` O(1). The
    live-event counter backing :meth:`Simulator.pending_events` is adjusted
    here, at cancel time, so the skip-on-pop needs no bookkeeping. Dispatch
    unbinds the call from its simulator, so cancelling a call that already
    ran (a watchdog disarmed after it fired) leaves the counter alone.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time:.3f} {getattr(self.fn, '__name__', self.fn)} {state}>"


#: Allocate a ScheduledCall without the Python-level ``__init__`` frame —
#: used on the hottest construction site, the resume push in ``Process._step``.
_new_call = ScheduledCall.__new__


class Process(Waitable):
    """A generator coroutine driven by the simulator.

    A ``Process`` is itself a :class:`Waitable`: other processes can
    ``yield proc`` to join on its completion and receive its return value.

    Attributes
    ----------
    name:
        Human-readable label used in traces and error messages.
    alive:
        ``True`` until the generator returns or raises.
    value:
        The generator's return value once finished.
    exception:
        The exception that terminated the generator, if any.
    """

    __slots__ = (
        "_sim",
        "_gen",
        "_send",
        "_throw",
        "_schedule",
        "name",
        "alive",
        "value",
        "exception",
        "_callbacks",
    )

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = "process"):
        self._sim = sim
        self._gen = gen
        # Pre-bound handles: _step runs once per process resumption, so the
        # attribute chains (gen.send, sim.schedule) are hoisted out of it.
        self._send = gen.send
        self._throw = gen.throw
        self._schedule = sim.schedule
        self.name = name
        self.alive = True
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: List[Callable[[Any, Optional[BaseException]], None]] = []

    # -- Waitable protocol -------------------------------------------------
    def add_callback(self, fn: Callable[[Any, Optional[BaseException]], None]) -> None:
        if not self.alive:
            self._schedule(0.0, fn, self.value, self.exception)
        else:
            self._callbacks.append(fn)

    # -- internal ----------------------------------------------------------
    def _start(self) -> None:
        self._step(None, None)

    def kill(self) -> None:
        """Terminate the process immediately (device-crash recovery).

        ``GeneratorExit`` propagates through the ``yield from`` chain, so
        ``try/finally`` cleanup (e.g. releasing a physical device's
        execution mutex mid-``run_op``) runs exactly as it would on normal
        completion. Joined waiters observe a ``None`` return value, not an
        exception — a killed process is an administrative act, not a
        failure, so it never routes through ``_note_failure``.

        Waitable callbacks the process already registered (a parked queue
        get, a pending timeout) may still fire afterwards; the ``alive``
        guard at the top of :meth:`_step` makes them no-ops. Idempotent.
        """
        if not self.alive:
            return
        try:
            self._gen.close()
        finally:
            self.alive = False
            self.value = None
            self.exception = None
            callbacks, self._callbacks = self._callbacks, []
            for fn in callbacks:
                self._schedule(0.0, fn, None, None)
            self._sim._processes.pop(self, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator by one yield, wiring up the next waitable.

        Inside :meth:`Simulator.run`, a yield whose wake-up would be the very
        next event dispatched resumes the generator here, in place, instead
        of pushing an entry that the dispatch loop pops straight back (see
        :meth:`Simulator.run` for why the order of events is unchanged).
        """
        if not self.alive:
            # A stale waitable callback for a killed process: drop it.
            return
        sim = self._sim
        hooks = sim._hooks
        while True:
            if hooks:
                for hook in hooks:
                    hook.on_process_resume(sim._now, self)
            try:
                if exc is not None:
                    target = self._throw(exc)
                else:
                    target = self._send(value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as err:  # noqa: BLE001 - captured and re-raised by run()
                self._finish(None, err)
                return

            if hooks:
                for hook in hooks:
                    hook.on_process_yield(sim._now, self, target)
            # Timeout (every modelled latency) and SimEvent (queues, locks,
            # fences) are by far the most common yields, so their exact-type
            # checks run before the generic isinstance.
            kind = type(target)
            if kind is Timeout:
                when = sim._now + target.delay
                value = target.value
                exc = None
            elif kind is SimEvent:
                if not target.fired:
                    target._callbacks.append(self._step)
                    return
                when = sim._now
                value = target.value
                exc = target._exception
            elif isinstance(target, Waitable):
                target.add_callback(self._step)
                return
            elif isinstance(target, Timeout):  # pragma: no cover - Timeout subclass
                self._schedule(target.delay, self._step, target.value, None)
                return
            else:
                bad = SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected a Waitable or Timeout"
                )
                self._finish(None, bad)
                return

            heap = sim._heap
            if (
                when <= sim._resume_until
                and (not heap or when < heap[0][0])
                and sim._failure is None
            ):
                # The wake-up would be the next entry the dispatch loop pops:
                # dispatch it here. Hooks see the same event as before.
                sim._now = when
                if hooks:
                    call = ScheduledCall(when, self._step, (value, exc))
                    for hook in hooks:
                        hook.on_event_dispatch(when, call)
                continue
            # Inline Simulator.schedule, allocating the call without its
            # Python-level ``__init__``: this is the hottest push site, and
            # nobody holds the handle to cancel it.
            call = _new_call(ScheduledCall)
            call.time = when
            call.fn = self._step
            call.args = (value, exc)
            call.cancelled = False
            call._sim = sim
            sim._seq = seq = sim._seq + 1
            _heappush(heap, (when, seq, call))
            sim._live_events += 1
            return

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self.alive = False
        self.value = value
        self.exception = exc
        callbacks, self._callbacks = self._callbacks, []
        if exc is not None and not callbacks:
            # Nobody is joined on this process: the exception would vanish.
            # Surface it from Simulator.run() instead of failing silently.
            self._sim._note_failure(self, exc)
        for fn in callbacks:
            self._schedule(0.0, fn, value, exc)
        # Release the finished process so long runs don't accumulate every
        # process ever spawned (the registry only tracks live ones for the
        # deadlock report).
        self._sim._processes.pop(self, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Event loop and virtual clock for one simulated experiment.

    Typical usage::

        sim = Simulator()

        def worker():
            yield Timeout(5.0)
            return "done"

        proc = sim.spawn(worker(), name="worker")
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now = 0.0
        # ``(time, seq, call)`` entries; ``seq`` increases with every push,
        # so events at equal times dispatch in scheduling order.
        self._heap: List[Tuple[float, int, ScheduledCall]] = []
        self._seq = 0
        # Insertion-ordered registry of *live* processes (finished ones are
        # pruned by Process._finish). A dict-as-ordered-set keeps removal
        # O(1) while the deadlock report still lists names in spawn order.
        self._processes: Dict[Process, None] = {}
        self._failure: Optional[Tuple[Process, BaseException]] = None
        self._hooks: List[SimHook] = []
        self._live_events = 0
        # Latest wake-up a process may resume in place at: ``run``'s horizon
        # while it runs, -inf otherwise (``step`` dispatches one event only).
        self._resume_until = -_INF

    # -- observability hooks -------------------------------------------------
    def add_hook(self, hook: SimHook) -> None:
        """Register a kernel observer (see :class:`SimHook`)."""
        self._hooks.append(hook)

    def remove_hook(self, hook: SimHook) -> None:
        """Unregister a previously added observer. Idempotent."""
        if hook in self._hooks:
            self._hooks.remove(hook)

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        call = ScheduledCall(time, fn, args, self)
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, call))
        self._live_events += 1
        return call

    def spawn(self, gen: ProcessGenerator, name: str = "process") -> Process:
        """Start a generator coroutine as a simulation process.

        The first step of the process runs via the event heap at the current
        time, not synchronously — so ``spawn`` is safe to call from within
        another process without re-entrancy surprises.
        """
        proc = Process(self, gen, name=name)
        self._processes[proc] = None
        self.schedule(0.0, proc._start)
        return proc

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event. Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, call = _heappop(heap)
            if call.cancelled:
                continue
            if time < self._now:
                raise SimulationError("event queue time went backwards")
            self._now = time
            self._live_events -= 1
            call._sim = None
            if self._hooks:
                for hook in self._hooks:
                    hook.on_event_dispatch(time, call)
            call.fn(*call.args)
            if self._failure is not None:
                self._raise_pending_failure()
            return True
        return False

    def run(self, until: Optional[float] = None, check_deadlock: bool = False) -> None:
        """Run events until the queue drains or simulated time passes ``until``.

        With ``until`` set, the clock is advanced to exactly ``until`` even if
        the last event fires earlier, so back-to-back ``run`` calls compose.
        ``check_deadlock=True`` raises :class:`DeadlockError` if no live
        event is left while processes are still alive (useful in unit tests).

        The dispatch loop is the single hottest path of the whole library
        (every simulated event passes through it), so it pops the heap
        inline, with locals in place of attribute lookups.

        While this loop runs, :meth:`Process._step` resumes a process in
        place when its wake-up is strictly earlier than the heap head and not
        past ``until``. That is exact: ``_step`` only runs as a dispatched
        event and returns straight here after its push, so an entry that is
        the heap minimum is the next one popped, with nothing in between. A
        tie goes to the earlier entry, hence "strictly".
        """
        outer = self._resume_until
        self._resume_until = limit = _INF if until is None else until
        heap = self._heap
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                _heappop(heap)
                call = entry[2]
                if call.cancelled:
                    continue
                if time < self._now:
                    raise SimulationError("event queue time went backwards")
                self._now = time
                self._live_events -= 1
                call._sim = None
                hooks = self._hooks
                if hooks:
                    for hook in hooks:
                        hook.on_event_dispatch(time, call)
                call.fn(*call.args)
                if self._failure is not None:
                    self._raise_pending_failure()
        finally:
            self._resume_until = outer
        if until is not None and self._now < until:
            self._now = until
        if check_deadlock and not self._live_events:
            stuck = [p.name for p in self._processes if p.alive]
            if stuck:
                raise DeadlockError(f"no events left but processes blocked: {stuck}")

    # -- failure propagation -------------------------------------------------
    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = (proc, exc)

    def _raise_pending_failure(self) -> None:
        if self._failure is not None:
            proc, exc = self._failure
            self._failure = None
            raise SimulationError(f"process {proc.name!r} failed") from exc

    # -- introspection ---------------------------------------------------------
    @property
    def live_processes(self) -> Iterable[Process]:
        """Processes that have not yet finished (spawn order)."""
        return [p for p in self._processes if p.alive]

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the heap. O(1).

        Maintained as a live counter: incremented by :meth:`schedule`,
        decremented on dispatch and on :meth:`ScheduledCall.cancel` —
        re-walking the queue made this O(events) and showed up in sweeps
        that poll it.
        """
        return self._live_events
