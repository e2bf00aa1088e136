"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import random

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import SimEvent, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_schedule_with_args():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b"]


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(3.0, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    seen = []
    call = sim.schedule(1.0, seen.append, "x")
    call.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    call = sim.schedule(1.0, lambda: None)
    call.cancel()
    call.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0
    sim.run()
    assert seen == ["late"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_nan_raises_before_dispatching():
    # No time compares past NaN, so a run to it would never stop on a
    # process that keeps scheduling; this one stops after three timeouts.
    sim = Simulator()
    ticks = []

    def proc():
        for _ in range(3):
            yield Timeout(1.0)
            ticks.append(sim.now)

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="NaN"):
        sim.run(until=float("nan"))
    assert ticks == [] and sim.now == 0.0
    sim.run(until=5.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_run_until_inf_leaves_clock_at_last_event():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    sim.spawn(proc())
    sim.run(until=float("inf"))
    assert sim.now == 1.0
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_schedule_rejects_negative_or_nan_delay(delay):
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    with pytest.raises(SimulationError, match="into the past"):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.now == 3.0


def test_process_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(7.5)
        return "done"

    p = sim.spawn(proc())
    sim.run()
    assert not p.alive
    assert p.value == "done"
    assert sim.now == 7.5


def test_timeout_returns_value_at_yield():
    sim = Simulator()
    results = []

    def proc():
        got = yield Timeout(1.0, "payload")
        results.append(got)

    sim.spawn(proc())
    sim.run()
    assert results == ["payload"]


def test_process_join_receives_return_value():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return 99

    def parent():
        result = yield sim.spawn(child(), name="child")
        return result * 2

    p = sim.spawn(parent(), name="parent")
    sim.run()
    assert p.value == 198


def test_join_on_already_finished_process():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return "early"

    child_proc = sim.spawn(child())
    sim.run()

    def parent():
        result = yield child_proc
        return result

    p = sim.spawn(parent())
    sim.run()
    assert p.value == "early"


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_joined_exception_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(bad(), name="bad")
        except ValueError:
            return "caught"
        return "missed"

    p = sim.spawn(parent(), name="parent")
    sim.run()
    assert p.value == "caught"


def test_yielding_garbage_fails_the_process():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_nested_spawn_ordering_is_deterministic():
    sim = Simulator()
    seen = []

    def worker(label, delay):
        yield Timeout(delay)
        seen.append(label)

    def parent():
        sim.spawn(worker("b", 2.0))
        sim.spawn(worker("a", 1.0))
        sim.spawn(worker("c", 2.0))
        yield Timeout(0.0)

    sim.spawn(parent())
    sim.run()
    assert seen == ["a", "b", "c"]


def test_deadlock_detection():
    sim = Simulator()
    from repro.sim import SimEvent

    never = SimEvent(sim, name="never")

    def stuck():
        yield never

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        sim.run(check_deadlock=True)


def test_cancelled_timer_past_until_does_not_hide_deadlock():
    sim = Simulator()
    from repro.sim import SimEvent

    never = SimEvent(sim, name="never")

    def stuck():
        yield never

    sim.spawn(stuck(), name="stuck")
    sim.schedule(100.0, lambda: None).cancel()
    with pytest.raises(DeadlockError):
        sim.run(until=50.0, check_deadlock=True)
    assert sim.pending_events() == 0


def test_live_processes_and_pending_events():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)

    sim.spawn(proc(), name="p1")
    assert sim.pending_events() == 1
    sim.run()
    assert list(sim.live_processes) == []


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        order = []

        def worker(label, delay):
            yield Timeout(delay)
            order.append((label, sim.now))

        for i in range(20):
            sim.spawn(worker(i, (i * 7) % 5 + 0.5))
        sim.run()
        return order

    assert build() == build()


def test_finished_processes_are_pruned():
    sim = Simulator()

    def quick():
        yield Timeout(1.0)

    for i in range(10):
        sim.spawn(quick(), name=f"q{i}")
    assert len(sim._processes) == 10
    sim.run()
    # The kernel must not accumulate finished processes across a long run.
    assert len(sim._processes) == 0
    assert list(sim.live_processes) == []


def test_deadlock_report_names_survive_pruning():
    sim = Simulator()
    from repro.sim import SimEvent

    never = SimEvent(sim, name="never")

    def done():
        yield Timeout(1.0)

    def stuck():
        yield never

    sim.spawn(done(), name="finisher")
    sim.spawn(stuck(), name="blocked")
    with pytest.raises(DeadlockError) as excinfo:
        sim.run(check_deadlock=True)
    # Pruning removes the finished process but the stuck one is still named.
    assert "blocked" in str(excinfo.value)
    assert "finisher" not in str(excinfo.value)


def test_pending_events_counts_cancellations():
    sim = Simulator()
    calls = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_events() == 5
    calls[0].cancel()
    calls[3].cancel()
    assert sim.pending_events() == 3
    calls[3].cancel()  # idempotent: no double decrement
    assert sim.pending_events() == 3
    sim.run()
    assert sim.pending_events() == 0


def test_pending_events_tracks_dispatch():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(proc(), name="p")
    counts = [sim.pending_events()]
    for until in (0.0, 1.0, 2.0):
        sim.run(until=until)
        counts.append(sim.pending_events())
    # The start waits in the lane, each wake-up in the heap until it runs.
    assert counts == [1, 1, 1, 0]


def test_cancel_after_dispatch_leaves_pending_count_alone():
    sim = Simulator()
    call = sim.schedule(1.0, lambda: None)
    sim.run()
    call.cancel()
    assert sim.pending_events() == 0


def test_expired_watchdog_leaves_pending_count_alone():
    from repro.errors import DeadlineExceededError
    from repro.sim import with_deadline

    sim = Simulator()

    def slow():
        yield Timeout(10.0)

    def waiter():
        try:
            yield from with_deadline(sim, slow(), 1.0, name="slow")
        except DeadlineExceededError:
            return "expired"

    proc = sim.spawn(waiter(), name="waiter")
    sim.run(until=5.0)
    # The watchdog fired and was then cancelled in with_deadline's
    # ``finally``; only the orphaned inner process's wake-up is live.
    assert proc.value == "expired"
    assert sim.pending_events() == 1
    sim.run()
    assert sim.pending_events() == 0


def test_cancelled_timers_leave_the_queue_in_order():
    """Cancel a seeded half of 60 timers, ties and zero delays among them,
    some up front and some from a callback at their own time."""
    rng = random.Random(29)
    sim = Simulator()
    count = 60
    delays = [rng.choice((0.0, 0.0, 1.0, 1.0, 1.0, 2.5, 4.0)) for _ in range(count)]
    victims = set(rng.sample(range(count), count // 2))
    survivors = [i for i in range(count) if i not in victims]
    # A victim tied with an earlier survivor is cancelled from that
    # survivor's callback, at the victim's own time; the rest up front.
    cancels_from = {}
    upfront = []
    for victim in sorted(victims):
        tied = [s for s in survivors if s < victim and delays[s] == delays[victim]]
        if tied and rng.random() < 0.7:
            cancels_from.setdefault(rng.choice(tied), []).append(victim)
        else:
            upfront.append(victim)
    in_callback = [victim for group in cancels_from.values() for victim in group]
    # Callbacks cancel from the lane (zero delays) and from the heap alike.
    assert upfront and {delays[victim] == 0.0 for victim in in_callback} == {True, False}
    ran = []

    def ring(index):
        ran.append((sim.now, index))
        pending = sim.pending_events()
        handles[index].cancel()  # already dispatched: changes nothing
        assert sim.pending_events() == pending
        for victim in cancels_from.get(index, ()):
            handles[victim].cancel()
        assert sim.pending_events() == pending - len(cancels_from.get(index, ()))

    handles = [sim.schedule(delay, ring, i) for i, delay in enumerate(delays)]
    assert sim.pending_events() == count
    for victim in upfront:
        handles[victim].cancel()
        handles[victim].cancel()  # idempotent
    assert sim.pending_events() == count - len(upfront)
    for until in (0.0, 1.0, 2.5, 4.0):
        sim.run(until=until)
        later = [i for i in range(count) if delays[i] > until and i not in upfront]
        assert sim.pending_events() == len(later)
    assert ran == sorted((delays[i], i) for i in survivors)

    # Cancelling every handle again, after the run, leaves a new timer alone.
    late = sim.schedule(0.0, ring, count)
    handles.append(late)
    for handle in handles[:count]:
        handle.cancel()
    assert sim.pending_events() == 1
    sim.run()
    assert ran[-1] == (4.0, count) and sim.pending_events() == 0


def test_a_delay_that_rounds_away_runs_in_scheduling_order():
    # At 0.0, 1e-18 is a real later time. At 1.0 it rounds away, so the
    # call is due now: it runs after the heap entries due now, which were
    # scheduled first, and between the zero delays scheduled around it.
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(0.0, seen.append, ("zero", sim.now))
        sim.schedule(1e-18, seen.append, ("tiny", sim.now))
        sim.schedule(0.0, seen.append, ("zero again", sim.now))

    sim.schedule(1e-18, lambda: seen.append(("at-0", sim.now)))
    sim.schedule(1.0, first)
    sim.schedule(1.0, seen.append, ("second", 1.0))
    sim.run()
    assert seen == [("at-0", 1e-18), ("first", 1.0), ("second", 1.0),
                    ("zero", 1.0), ("tiny", 1.0), ("zero again", 1.0)]
    assert sim.now == 1.0


def test_run_until_a_past_time_runs_nothing_due_now():
    sim = Simulator()
    seen = []
    sim.run(until=2.0)
    sim.schedule(0.0, seen.append, "due at 2.0")
    sim.run(until=1.0)
    assert seen == [] and sim.now == 2.0 and sim.pending_events() == 1
    sim.run(until=2.0)
    assert seen == ["due at 2.0"]


class _Dispatches:
    """A hook that logs ``(time, callee)`` for every dispatch."""

    def __init__(self):
        self.log = []

    def on_event_dispatch(self, time, call):
        self.log.append((time, call.fn))


def _kill_at_yield(park):
    """Kill a process at 1.0 while ``park(sim)`` holds its wake-up, and
    run on to 5.0. Returns what the victim, its joiners and a hook saw."""
    sim = Simulator()
    hook = _Dispatches()
    sim.add_hook(hook)
    seen = {"cleanups": [], "resumed": [], "joined": [], "callback": []}

    def victim():
        try:
            yield from park(sim)
            seen["resumed"].append(sim.now)
        finally:
            seen["cleanups"].append(sim.now)

    def joiner():
        seen["joined"].append((yield proc))

    proc = sim.spawn(victim(), name="victim")
    sim.spawn(joiner(), name="joiner")
    proc.add_callback(lambda value, exc: seen["callback"].append((value, exc)))
    sim.run(until=0.0)  # both start, so the kill queues after the first yield
    sim.schedule(1.0, proc.kill)
    sim.run(until=5.0)
    seen["dispatches"] = [time for time, callee in hook.log if callee is proc]
    return seen


def _in_the_heap(sim):
    yield Timeout(3.0)


def _in_the_lane(sim):
    # The kill is due at 1.0 too, behind this wake-up: the next one cannot
    # resume in place and waits in the lane while the kill runs.
    yield Timeout(1.0)
    yield Timeout(0.0)


def _on_an_event(sim):
    event = SimEvent(sim, name="later")
    sim.schedule(2.0, event.fire, "late")
    yield event


def _on_a_failing_event(sim):
    # Resumed, the closed generator would raise this and fail the run.
    event = SimEvent(sim, name="later")
    sim.schedule(2.0, event.fail, ValueError("late"))
    yield event


@pytest.mark.parametrize("park, dispatches", [
    (_in_the_heap, [0.0, 3.0]),
    (_in_the_lane, [0.0, 1.0, 1.0]),
    (_on_an_event, [0.0, 2.0]),
    (_on_a_failing_event, [0.0, 2.0]),
])
def test_a_killed_process_cleans_up_once_and_never_resumes(park, dispatches):
    seen = _kill_at_yield(park)
    assert seen["cleanups"] == [1.0]
    assert seen["resumed"] == []
    assert seen["joined"] == [None]
    assert seen["callback"] == [(None, None)]
    # The hook still counts the wake-up the kill left queued, the last one.
    assert seen["dispatches"] == dispatches
