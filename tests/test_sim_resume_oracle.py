"""In-place process resume against the frozen reference kernel.

Inside ``Simulator.run`` the live kernel resumes a process without a heap
round trip when its wake-up would be the very next event dispatched. The
frozen kernel in ``repro.experiments._baseline_kernel`` always round-trips.
Seeded random process mixes run through both must give identical resume
logs, clocks and pending-event counts, and an attached ``SelfProfiler``
must fill an identical table. The mixes also schedule and cancel plain
timers; the reference counts pending events by scanning its heap, so the
comparison checks the live kernel's counter too.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.experiments import _baseline_kernel as ref
from repro.obs.profile import SelfProfiler
from repro.sim import SimEvent, Simulator, Timeout

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

SEEDS = range(300)


def random_mix(seed):
    """``(events, scripts, plan)``: shared events, one action list per
    process, and the run/step calls that drive them."""
    rng = random.Random(seed)
    events = rng.randint(1, 4)
    scripts = []
    for index in range(rng.randint(2, 7)):
        actions = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("timeout", "timeout", "timeout", "wait", "fire",
                               "join", "spawn", "timer"))
            if kind in ("timeout", "spawn"):
                actions.append((kind, rng.choice(DELAYS)))
            elif kind == "timer":
                actions.append((kind, (rng.choice(DELAYS + (FAR,)),
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
            plan.append(("step", rng.randint(1, 5)))
        else:
            plan.append(("run", rng.choice(OFFSETS)))
    plan.append(("run", rng.choice((None, HORIZON))))
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
    for kind, arg in plan:
        if kind == "step":
            for _ in range(arg):
                call(sim.step)
        else:
            until = None if arg is None else sim.now + arg
            while not call(sim.run, until):
                pass
        checkpoints.append((sim.now, sim.pending_events()))
    return {"log": log, "checkpoints": checkpoints, "now": sim.now,
            "pending": sim.pending_events()}, sim


class _LiveTimeouts:
    """Hands the profiler live ``Timeout``s for the reference kernel's own."""

    def __init__(self, profiler):
        self.profiler = profiler

    def on_event_dispatch(self, time, call):
        self.profiler.on_event_dispatch(time, call)

    def on_process_resume(self, time, process):
        self.profiler.on_process_resume(time, process)

    def on_process_yield(self, time, process, target):
        if isinstance(target, ref.Timeout):
            target = Timeout(target.delay, target.value)
        self.profiler.on_process_yield(time, process, target)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_mix_matches_reference_kernel(seed):
    mix = random_mix(seed)
    live, _ = drive(LIVE, mix)
    reference, _ = drive(REFERENCE, mix)
    assert live == reference


def test_random_mixes_resume_in_place():
    # The oracle above is only meaningful if the live kernel really skips
    # heap round trips: it pushes fewer entries than the reference does.
    live_pushes = reference_pushes = 0
    for seed in SEEDS:
        mix = random_mix(seed)
        live_pushes += drive(LIVE, mix)[1]._seq
        reference_pushes += drive(REFERENCE, mix)[1]._seq
    assert live_pushes < reference_pushes


@pytest.mark.parametrize("seed", range(0, 300, 7))
def test_profiler_table_matches_reference_kernel(seed):
    mix = random_mix(seed)
    live_profiler, reference_profiler = SelfProfiler(), SelfProfiler()
    live, _ = drive(LIVE, mix, hook=live_profiler)
    reference, _ = drive(REFERENCE, mix, hook=_LiveTimeouts(reference_profiler))
    assert live == reference
    assert live_profiler.table() == reference_profiler.table()
    assert live_profiler.events_dispatched > 0


def test_step_never_resumes_in_place():
    sim = Simulator()

    def worker():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(worker(), name="w")
    assert sim.step() and sim.now == 0.0  # start: yields the first Timeout
    assert sim.step() and sim.now == 1.0  # one wake-up, not both
    assert sim.pending_events() == 1
    sim.run()
    assert sim.now == 2.0 and sim.pending_events() == 0
