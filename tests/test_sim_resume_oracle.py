"""The live kernel's queues and in-place resume against the frozen kernel.

The live kernel keeps calls due at the current clock in a FIFO lane
beside its heap, and inside ``Simulator.run`` it resumes a process
without queueing anything when its wake-up would be the very next event
dispatched. The frozen kernel in ``tests/_baseline_kernel.py`` round-trips
every call through one heap. Seeded random process mixes run through
both must give identical resume logs, clocks and pending-event counts,
and an attached dispatch hook must see an identical sequence of
dispatches. The mixes also schedule and cancel plain timers; the
reference counts pending events by scanning its heap, so the comparison
checks that a cancelled call leaves the live kernel's queues.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.errors import SimulationError
from repro.sim import Process, SimEvent, Simulator, Timeout
from tests import _baseline_kernel as ref

LIVE = (Simulator, Timeout, SimEvent)
REFERENCE = (ref.Simulator, ref.Timeout, ref.SimEvent)

#: A coarse grid, so that zero delays and equal wake-ups are common.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0)
#: ``run(until=now + offset)`` offsets on the same grid: they land on wake-ups.
OFFSETS = (0.0, 0.5, 1.0, 2.0, 2.5, 4.0)
#: The last ``run`` either drains the queue or stops at ``now + HORIZON``,
#: which every process finishes well before; timers at ``FAR`` outlive it.
HORIZON = 100.0
FAR = 1_000.0
#: How many actions later a timer is cancelled; None = never.
CANCEL_AFTER = (0, 1, 2, None)
#: The grid plus a delay that is a real later time at ``now == 0.0`` but
#: rounds away at ``now == 1.0``: there the live kernel queues it in the
#: lane, behind heap entries due now, and the frozen kernel in its heap.
VANISHING_DELAYS = DELAYS + (1e-18,) * 4

SEEDS = range(300)
VANISHING_SEEDS = range(100)


def random_mix(seed, delays=DELAYS):
    """``(events, scripts, plan)``: shared events, one action list per
    process, and the ``run(until=now + offset)`` offsets that drive them
    (``None`` runs until the queue drains)."""
    rng = random.Random(seed)
    events = rng.randint(1, 4)
    scripts = []
    for index in range(rng.randint(2, 7)):
        actions = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("timeout", "timeout", "timeout", "wait", "fire",
                               "join", "spawn", "timer"))
            if kind in ("timeout", "spawn"):
                actions.append((kind, rng.choice(delays)))
            elif kind == "timer":
                actions.append((kind, (rng.choice(delays + (FAR,)),
                                       rng.choice(CANCEL_AFTER))))
            elif kind in ("wait", "fire"):
                actions.append((kind, rng.randrange(events)))
            elif index:
                actions.append(("join", rng.randrange(index)))
        if rng.random() < 0.2:
            actions.append(("fail", None))
        scripts.append(actions)
    plan = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.4:
            # Runs everything due now; the unused draw keeps each seed's mix.
            rng.randint(1, 5)
            plan.append(0.0)
        else:
            plan.append(rng.choice(OFFSETS))
    plan.append(rng.choice((None, HORIZON)))
    return events, scripts, plan


def drive(kernel, mix, hook=None):
    """Run ``mix`` on one kernel; returns what the two must agree on."""
    sim_class, timeout_class, event_class = kernel
    n_events, scripts, plan = mix
    sim = sim_class()
    if hook is not None:
        sim._hooks.append(hook)
    events = [event_class(sim, name=f"e{i}") for i in range(n_events)]
    procs = []
    log = []

    def ring(name, step):
        log.append((sim.now, name, ("timer", step)))

    def body(name, actions):
        cancels = []  # (action index to cancel at, timer handle)
        for step, (kind, arg) in enumerate(actions):
            for due, timer in cancels:
                if due == step:
                    timer.cancel()
            if kind == "timer":
                delay, cancel_after = arg
                timer = sim.schedule(delay, ring, name, step)
                if cancel_after == 0:
                    timer.cancel()
                elif cancel_after is not None:
                    cancels.append((step + cancel_after, timer))
                continue
            if kind == "fail":
                raise ValueError(name)
            if kind == "fire":
                if not events[arg].fired:
                    events[arg].fire((name, step))
                continue
            if kind == "spawn":
                child = f"{name}.{step}"
                sim.spawn(body(child, [("timeout", arg)]), name=child)
                continue
            try:
                if kind == "timeout":
                    got = yield timeout_class(arg, (name, step))
                elif kind == "wait":
                    got = yield events[arg]
                else:
                    got = yield procs[arg]
            except ValueError as err:
                got = ("raised", str(err))
            log.append((sim.now, name, got))
        return name

    for index, actions in enumerate(scripts):
        procs.append(sim.spawn(body(f"p{index}", actions), name=f"p{index}"))

    def call(fn, *args):
        try:
            fn(*args)
            return True
        except SimulationError as err:  # an unjoined process failed
            log.append((sim.now, "failed", repr(err.__cause__)))
            return False

    checkpoints = []
    for offset in plan:
        until = None if offset is None else sim.now + offset
        while not call(sim.run, until):
            pass
        checkpoints.append((sim.now, sim.pending_events()))
    return {"log": log, "checkpoints": checkpoints, "now": sim.now,
            "pending": sim.pending_events()}, sim


class _DispatchProfiler:
    """Profiles dispatches: its table logs ``(time, callee)`` for each one.

    A process callee is the process itself on the live kernel and a bound
    ``_start`` or ``_step`` on the frozen one; both log as the process's
    name. The frozen kernel also calls resume and yield hooks, which the
    live kernel does not have; here they do nothing.
    """

    def __init__(self):
        self.table = []

    def on_event_dispatch(self, time, call):
        owner = getattr(call.fn, "__self__", call.fn)
        if isinstance(owner, (Process, ref.Process)):
            self.table.append((time, ("process", owner.name)))
        else:
            self.table.append((time, call.fn.__qualname__))

    def on_process_resume(self, time, process):
        pass

    def on_process_yield(self, time, process, target):
        pass


@pytest.mark.parametrize("seed", SEEDS)
def test_random_mix_matches_reference_kernel(seed):
    mix = random_mix(seed)
    live, _ = drive(LIVE, mix)
    reference, _ = drive(REFERENCE, mix)
    assert live == reference


class _CountingLane(deque):
    """A lane that counts its appends."""

    appends = 0

    def append(self, entry):
        self.appends += 1
        super().append(entry)


class _CountingSimulator(Simulator):
    def __init__(self):
        super().__init__()
        self._lane = _CountingLane()


def test_random_mixes_resume_in_place():
    # The oracle above is only meaningful if the live kernel really skips
    # round trips: it queues fewer entries, in its heap and its lane
    # together, than the reference pushes onto its heap.
    live_queued = reference_pushes = 0
    for seed in SEEDS:
        mix = random_mix(seed)
        sim = drive((_CountingSimulator, Timeout, SimEvent), mix)[1]
        live_queued += sim._seq + sim._lane.appends
        reference_pushes += drive(REFERENCE, mix)[1]._seq
    assert live_queued < reference_pushes


def assert_same_dispatches(mix):
    live_profiler, reference_profiler = _DispatchProfiler(), _DispatchProfiler()
    live, _ = drive(LIVE, mix, hook=live_profiler)
    reference, _ = drive(REFERENCE, mix, hook=reference_profiler)
    assert live == reference
    assert live_profiler.table == reference_profiler.table
    assert live_profiler.table


@pytest.mark.parametrize("seed", SEEDS)
def test_profiler_table_matches_reference_kernel(seed):
    # Lane entries and in-place resumes dispatch to hooks too, so a hook
    # sees the very dispatch sequence of a kernel that round-trips every
    # wake-up through one heap.
    assert_same_dispatches(random_mix(seed))


@pytest.mark.parametrize("seed", VANISHING_SEEDS)
def test_vanishing_delays_match_reference_kernel(seed):
    mix = random_mix(seed, VANISHING_DELAYS)
    live, _ = drive(LIVE, mix)
    reference, _ = drive(REFERENCE, mix)
    assert live == reference
    assert_same_dispatches(mix)


def test_vanishing_delays_reach_both_queues():
    # The mixes above are only meaningful if some 1e-18 timer is a real
    # later time and some other one rounds away.
    rounded_away = set()

    class Recording(Simulator):
        def schedule(self, delay, fn, *args):
            if delay == 1e-18:
                rounded_away.add(self.now + delay == self.now)
            return super().schedule(delay, fn, *args)

    for seed in VANISHING_SEEDS:
        drive((Recording, Timeout, SimEvent), random_mix(seed, VANISHING_DELAYS))
    assert rounded_away == {True, False}
