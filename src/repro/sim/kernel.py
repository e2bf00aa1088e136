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

A process waits by queueing itself: its wake-up entry, or the callback a
waitable keeps, is the :class:`Process`. :meth:`Simulator.run` is the one
place that resumes a generator; every other callee is a plain callback,
called as ``fn(value, exc)``.

The clock, :attr:`Simulator.now`, is a plain attribute: every modelled
latency, trace record and metric reads it, so it costs no call to read.
Only the kernel writes it.

Determinism
-----------
Events scheduled for the same timestamp run in scheduling order. A call
due later waits in a heap of ``(time, seq, callee, value, exc)`` entries,
where ``seq`` increases with every push and breaks ties. A call due at
the current clock (a zero delay, or a positive one that rounds away)
waits in a FIFO lane of ``(callee, value, exc)`` entries instead. A heap
entry due now was pushed while the clock was earlier, so it precedes
every lane entry: dispatch runs those first, then the lane in order,
then advances the clock, which is the ``(time, seq)`` order of one heap
holding both. No wall-clock or unseeded randomness is ever consulted, so
a run is a pure function of its inputs — tests assert trace-for-trace
reproducibility.

Error handling
--------------
An exception escaping a process is captured and re-raised from
:meth:`Simulator.run` (fail fast). Processes waiting on a failed process
observe the same exception at their ``yield``.

Dispatch hooks
--------------
:meth:`Simulator.add_hook` registers a :class:`SimHook`-shaped observer.
Hooks see every event dispatch (``on_event_dispatch``), from the heap,
from the lane and the wake-ups a process resumes in place, so they see
the same dispatch sequence as a kernel that round-trips every wake-up
through one heap. Each dispatch hands the hook a :class:`ScheduledCall`:
the handle :meth:`Simulator.schedule` returned, or an equivalent one
built for an internal entry, whose ``fn`` is the process or callback and
whose ``args`` are ``(value, exc)``. A killed process's stale entry
reaches the hooks too, and is then dropped. The invariant auditor is the
one hook in ``src``. Hooks are pure observers: they must not schedule or
mutate, and with none registered the kernel pays a single truth test per
dispatch.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.primitives import Callback, SimEvent, Timeout, Waitable

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")

ProcessGenerator = Generator[Any, Any, Any]


class SimHook:
    """Observer of kernel event dispatch.

    The callback receives the simulated time first. It runs synchronously
    inside the kernel and must neither block nor mutate simulator state.
    """

    def on_event_dispatch(self, time: float, call: "ScheduledCall") -> None:
        """An event taken off the queue is about to run."""


class ScheduledCall:
    """Handle for a callback registered with :meth:`Simulator.schedule`.

    The queue entry holds the handle itself as its callee, so
    :meth:`cancel` finds the entry by identity and removes it, from the
    heap or from the lane. A cancelled call therefore never moves the
    clock and never reaches a hook. The heap holds a handful of entries,
    so the scan costs little, and cancelling a call that already ran finds
    nothing and changes nothing. Hooks get an equivalent, unbound handle
    for an internal entry; cancelling that one does nothing either.
    """

    __slots__ = ("time", "fn", "args", "_sim")

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
        self._sim = sim

    def __call__(self, value: Any, exc: Optional[BaseException]) -> None:
        # Dispatched like any plain callback; a timer's entry carries no value.
        self.fn(*self.args)

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        sim = self._sim
        if sim is None:
            return
        heap = sim._heap
        for index, entry in enumerate(heap):
            if entry[2] is self:
                del heap[index]
                heapq.heapify(heap)
                return
        lane = sim._lane
        for index, entry in enumerate(lane):
            if entry[0] is self:
                del lane[index]
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScheduledCall t={self.time:.3f} {getattr(self.fn, '__name__', self.fn)}>"


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
        "name",
        "alive",
        "value",
        "exception",
        "_callbacks",
    )

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = "process"):
        self._sim = sim
        self._gen = gen
        # Pre-bound generator methods: the dispatch loop resumes the
        # process through them, so the attribute chains are hoisted.
        self._send = gen.send
        self._throw = gen.throw
        self.name = name
        self.alive = True
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: List[Callback] = []

    # -- Waitable protocol -------------------------------------------------
    def add_callback(self, fn: Callback) -> None:
        if not self.alive:
            self._sim._lane.append((fn, self.value, self.exception))
        else:
            self._callbacks.append(fn)

    # -- internal ----------------------------------------------------------
    def kill(self) -> None:
        """Terminate the process immediately (device-crash recovery).

        ``GeneratorExit`` propagates through the ``yield from`` chain, so
        ``try/finally`` cleanup (e.g. releasing a physical device's
        execution mutex mid-``run_op``) runs exactly as it would on normal
        completion. Joined waiters observe a ``None`` return value, not an
        exception — a killed process is an administrative act, not a
        failure, so it never routes through ``_note_failure``.

        Wake-ups the process already queued (a parked queue get, a pending
        timeout) may still be dispatched afterwards; :meth:`Simulator.run`
        hands them to the hooks and then drops them. Idempotent.
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
            lane = self._sim._lane
            for fn in callbacks:
                lane.append((fn, None, None))
            self._sim._processes.pop(self, None)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self.alive = False
        self.value = value
        self.exception = exc
        callbacks, self._callbacks = self._callbacks, []
        if exc is not None and not callbacks:
            # Nobody is joined on this process: the exception would vanish.
            # Surface it from Simulator.run() instead of failing silently.
            self._sim._note_failure(self, exc)
        lane = self._sim._lane
        for fn in callbacks:
            lane.append((fn, value, exc))
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
        #: Current simulated time in milliseconds; only the kernel writes it.
        self.now = 0.0
        # ``(time, seq, callee, value, exc)`` entries due after the clock
        # that pushed them; ``seq`` counts heap pushes, so equal times keep
        # push order and a comparison never reaches the callee.
        self._heap: List[Tuple[Any, ...]] = []
        self._seq = 0
        # ``(callee, value, exc)`` entries due at ``now``, in scheduling order.
        self._lane: Deque[Tuple[Any, Any, Optional[BaseException]]] = deque()
        # Insertion-ordered registry of *live* processes (finished ones are
        # pruned by Process._finish). A dict-as-ordered-set keeps removal
        # O(1) while the deadlock report still lists names in spawn order.
        self._processes: Dict[Process, None] = {}
        self._failure: Optional[Tuple[Process, BaseException]] = None
        self._hooks: List[SimHook] = []

    # -- observability hooks -------------------------------------------------
    def add_hook(self, hook: SimHook) -> None:
        """Register a kernel observer (see :class:`SimHook`)."""
        self._hooks.append(hook)

    # -- scheduling ------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` ms of simulated time.

        A call whose time equals the clock, including a positive ``delay``
        that rounds away, joins the same-time lane; any later one the heap.
        """
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        time = now + delay
        call = ScheduledCall(time, fn, args, self)
        if time == now:
            self._lane.append((call, None, None))
        else:
            self._seq = seq = self._seq + 1
            _heappush(self._heap, (time, seq, call, None, None))
        return call

    def spawn(self, gen: ProcessGenerator, name: str = "process") -> Process:
        """Start a generator coroutine as a simulation process.

        The first resume of the process runs via the same-time lane, not
        synchronously — so ``spawn`` is safe to call from within another
        process without re-entrancy surprises.
        """
        proc = Process(self, gen, name=name)
        self._processes[proc] = None
        self._lane.append((proc, None, None))
        return proc

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None, check_deadlock: bool = False) -> None:
        """Run events until the queue drains or simulated time passes ``until``.

        With a finite ``until``, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose. ``until=inf`` behaves like ``until=None``: the clock stays
        at the last event, so a later ``schedule`` still lands in finite time.
        A NaN ``until`` raises :class:`SimulationError` before any event
        runs: no time compares past it, so the loop would never stop.
        ``check_deadlock=True`` raises :class:`DeadlockError` if no event is
        left while processes are still alive (useful in unit tests).

        The dispatch loop is the single hottest path of the whole library
        (every simulated event passes through it), so it pops inline, with
        locals in place of attribute lookups. A heap entry due at ``now``
        runs before the lane (it was pushed first), and a lane entry never
        runs while the clock is past ``until``.

        A plain callee is called as ``fn(value, exc)``. A process callee is
        resumed here, and each waitable it yields routes its wake-up: an
        unfired event or a live process keeps the process as a callback;
        otherwise the wake-up resumes in place, or joins the lane if it is
        due now, or the heap. It resumes in place when the lane is empty and
        the wake-up is strictly earlier than the heap head and not past
        ``until``. That is exact: the entry would be the next one taken,
        with nothing in between. A tie goes to the earlier entry, hence
        "strictly". A pending failure needs no check there: only a process
        that finishes notes one, and that ends its resume.
        """
        if until is not None and until != until:
            raise SimulationError("cannot run until a NaN time")
        limit = _INF if until is None else until
        heap = self._heap
        lane = self._lane
        take = lane.popleft
        hooks = self._hooks
        while True:
            now = self.now
            if lane and (not heap or heap[0][0] > now):
                if now > limit:
                    break
                callee, value, exc = take()
            elif heap:
                time, _seq, callee, value, exc = heap[0]
                if time > limit:
                    break
                _heappop(heap)
                if time < now:
                    raise SimulationError("event queue time went backwards")
                self.now = now = time
            else:
                break
            if hooks:
                self._dispatch_to_hooks(now, callee, value, exc)
            if type(callee) is not Process:
                callee(value, exc)
            elif callee.alive:  # a killed process's stale entry is dropped
                while True:
                    try:
                        if exc is None:
                            target = callee._send(value)
                        else:
                            target = callee._throw(exc)
                    except StopIteration as stop:
                        callee._finish(stop.value, None)
                        break
                    except BaseException as err:  # noqa: BLE001 - re-raised below
                        callee._finish(None, err)
                        break
                    # Timeout (every modelled latency) and SimEvent (queues,
                    # locks, fences) are by far the most common yields, so
                    # their exact-type checks run before the isinstance.
                    kind = type(target)
                    if kind is Timeout:
                        when = now + target.delay
                        value = target.value
                        exc = None
                    elif kind is SimEvent:
                        if not target.fired:
                            target._callbacks.append(callee)
                            break
                        when = now
                        value = target.value
                        exc = target._exception
                    elif isinstance(target, Waitable):
                        target.add_callback(callee)
                        break
                    else:
                        callee._finish(None, SimulationError(
                            f"process {callee.name!r} yielded {target!r}; "
                            "expected a Waitable or Timeout"
                        ))
                        break
                    if when <= limit and not lane and (not heap or when < heap[0][0]):
                        # In place: this wake-up is the next entry taken.
                        self.now = now = when
                        if hooks:
                            self._dispatch_to_hooks(now, callee, value, exc)
                        continue
                    # Route by computed time: a delay that rounds away is due now.
                    if when == now:
                        lane.append((callee, value, exc))
                    else:
                        self._seq = seq = self._seq + 1
                        _heappush(heap, (when, seq, callee, value, exc))
                    break
            if self._failure is not None:
                self._raise_pending_failure()
        if self.now < limit < _INF:
            self.now = limit
        if check_deadlock and not heap and not lane:
            stuck = [p.name for p in self._processes if p.alive]
            if stuck:
                raise DeadlockError(f"no events left but processes blocked: {stuck}")

    def _dispatch_to_hooks(
        self, time: float, callee: Any, value: Any, exc: Optional[BaseException]
    ) -> None:
        # A public entry's callee is its handle; an internal one gets an
        # equivalent handle, built for the hooks alone.
        call = (
            callee if type(callee) is ScheduledCall
            else ScheduledCall(time, callee, (value, exc))
        )
        for hook in self._hooks:
            hook.on_event_dispatch(time, call)

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
        """Number of events queued in the heap and the lane. O(1).

        A cancelled call leaves the queue at once, so nothing it holds is
        stale.
        """
        return len(self._heap) + len(self._lane)
