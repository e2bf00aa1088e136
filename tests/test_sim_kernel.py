"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator, Timeout


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


def test_step_returns_false_on_empty_heap():
    sim = Simulator()
    assert sim.step() is False


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
    counts = []
    while sim.step():
        counts.append(sim.pending_events())
    assert counts[-1] == 0
    # Each dispatched event left the live count consistent with the heap.
    assert all(c >= 0 for c in counts)


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
