"""Unit tests for simulation primitives (repro.sim.primitives)."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoQueue, Mutex, Semaphore, SimEvent, Simulator, Timeout


# --- SimEvent --------------------------------------------------------------

def test_event_wakes_waiter_with_value():
    sim = Simulator()
    event = SimEvent(sim, name="ev")
    results = []

    def waiter():
        got = yield event
        results.append(got)

    sim.spawn(waiter())
    sim.schedule(4.0, event.fire, "hello")
    sim.run()
    assert results == ["hello"]
    assert sim.now == 4.0


def test_event_wakes_multiple_waiters():
    sim = Simulator()
    event = SimEvent(sim)
    results = []

    def waiter(label):
        got = yield event
        results.append((label, got))

    for label in "abc":
        sim.spawn(waiter(label))
    sim.schedule(1.0, event.fire, 7)
    sim.run()
    assert results == [("a", 7), ("b", 7), ("c", 7)]


def test_late_waiter_on_fired_event():
    sim = Simulator()
    event = SimEvent(sim)
    event.fire("done")
    results = []

    def waiter():
        got = yield event
        results.append(got)

    sim.spawn(waiter())
    sim.run()
    assert results == ["done"]


def test_late_waiter_on_an_event_fired_with_no_waiters_resumes_through_the_lane():
    sim = Simulator()
    event = SimEvent(sim)
    event.fire("done")  # nobody waits: nothing is queued
    assert sim.pending_events() == 0
    results = []
    event.add_callback(lambda value, exc: results.append(value))
    assert sim.pending_events() == 1 and results == []  # queued, not run inline
    sim.run()
    assert results == ["done"]


def test_event_double_fire_rejected():
    sim = Simulator()
    event = SimEvent(sim)
    event.fire()
    with pytest.raises(SimulationError):
        event.fire()


def test_event_fail_propagates_exception():
    sim = Simulator()
    event = SimEvent(sim)
    results = []

    def waiter():
        try:
            yield event
        except RuntimeError as err:
            results.append(str(err))

    sim.spawn(waiter())
    sim.schedule(1.0, event.fail, RuntimeError("device error"))
    sim.run()
    assert results == ["device error"]


# --- Semaphore / Mutex -------------------------------------------------------

def test_semaphore_allows_up_to_capacity():
    sim = Simulator()
    sem = Semaphore(sim, permits=2)
    inside = []

    def worker(label):
        yield sem.acquire()
        inside.append(label)
        yield Timeout(10.0)
        sem.release()

    for label in "abc":
        sim.spawn(worker(label))
    sim.run(until=5.0)
    assert inside == ["a", "b"]
    sim.run()
    assert inside == ["a", "b", "c"]


def test_semaphore_fifo_wakeup():
    sim = Simulator()
    sem = Semaphore(sim, permits=1)
    order = []

    def worker(label):
        yield sem.acquire()
        order.append(label)
        yield Timeout(1.0)
        sem.release()

    for label in ("w1", "w2", "w3"):
        sim.spawn(worker(label))
    sim.run()
    assert order == ["w1", "w2", "w3"]


def test_release_without_waiters_increments_permits():
    sim = Simulator()
    sem = Semaphore(sim, permits=0)
    sem.release()
    assert sem.available == 1


def test_cancel_drops_a_queued_grant_and_passes_on_a_fired_one():
    sim = Simulator()
    sem = Semaphore(sim, permits=1)
    held = sem.acquire()
    queued = sem.acquire()
    sem.cancel(queued)
    sem.release()  # nobody queued: the permit goes back to the pool
    assert held.fired and not queued.fired and sem.available == 1
    fired = sem.acquire()
    assert fired.fired
    sem.cancel(fired)
    assert sem.available == 1


@pytest.mark.parametrize("primitive", ["semaphore", "queue"])
def test_contended_grants_get_their_own_events_and_wake_fifo(primitive):
    sim = Simulator()
    if primitive == "semaphore":
        sem = Semaphore(sim, permits=1)
        request, free = sem.acquire, sem.release
    else:
        queue = FifoQueue(sim, capacity=1)
        request, free = (lambda: queue.put(object())), queue.try_get
    first = request()
    second, third = request(), request()
    assert first.fired and not second.fired and not third.fired
    assert len({id(first), id(second), id(third)}) == 3
    free()
    assert second.fired and not third.fired
    free()
    assert third.fired


def test_mutex_is_binary():
    sim = Simulator()
    mutex = Mutex(sim)
    assert mutex.available == 1


def test_negative_permits_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Semaphore(sim, permits=-1)


# --- FifoQueue ---------------------------------------------------------------

def test_queue_put_then_get():
    sim = Simulator()
    q = FifoQueue(sim)
    results = []

    def consumer():
        item = yield q.get()
        results.append(item)

    sim.spawn(consumer())
    q.put("cmd")
    sim.run()
    assert results == ["cmd"]


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = FifoQueue(sim)
    results = []

    def consumer():
        item = yield q.get()
        results.append((sim.now, item))

    def producer():
        yield Timeout(9.0)
        yield q.put("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert results == [(9.0, "late")]


def test_queue_fifo_order():
    sim = Simulator()
    q = FifoQueue(sim)
    for item in (1, 2, 3):
        q.put(item)
    results = []

    def consumer():
        for _ in range(3):
            item = yield q.get()
            results.append(item)

    sim.spawn(consumer())
    sim.run()
    assert results == [1, 2, 3]


def test_bounded_queue_blocks_producer():
    sim = Simulator()
    q = FifoQueue(sim, capacity=1)
    timeline = []

    def producer():
        yield q.put("a")
        timeline.append(("put-a", sim.now))
        yield q.put("b")
        timeline.append(("put-b", sim.now))

    def consumer():
        yield Timeout(5.0)
        item = yield q.get()
        timeline.append(("got", item, sim.now))
        yield Timeout(0.0)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert ("put-a", 0.0) in timeline
    put_b = next(t for t in timeline if t[0] == "put-b")
    assert put_b[1] >= 5.0  # blocked until the consumer drained one item


def test_get_from_a_nonempty_queue_is_fired_with_the_head_and_admits_a_parked_putter():
    sim = Simulator()
    q = FifoQueue(sim, capacity=1)
    assert q.put("a").fired
    parked = q.put("b")
    assert not parked.fired
    got = q.get()
    assert got.fired and got.value == "a"
    assert parked.fired and len(q) == 1  # the putter's item took the freed slot
    again = q.get()
    assert again.fired and again.value == "b"
    assert len(q) == 0


def test_try_put_respects_capacity():
    sim = Simulator()
    q = FifoQueue(sim, capacity=2)
    assert q.try_put(1) is True
    assert q.try_put(2) is True
    assert q.try_put(3) is False
    assert len(q) == 2


def test_try_put_hands_off_to_waiting_getter():
    sim = Simulator()
    q = FifoQueue(sim, capacity=1)
    results = []

    def consumer():
        item = yield q.get()
        results.append(item)

    sim.spawn(consumer())
    sim.run()  # consumer is now parked on get()
    assert q.try_put("direct") is True
    sim.run()
    assert results == ["direct"]


def test_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        FifoQueue(sim, capacity=0)


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-0.5)


def test_nan_timeout_rejected():
    # NaN compares false against 0, so a `delay < 0` check lets it through
    # and the process would resume at now == nan.
    with pytest.raises(SimulationError):
        Timeout(float("nan"))


def test_timeout_refuses_subclasses():
    # The kernel matches a timeout by its exact type, so a subclass fails
    # where it is defined instead of failing the process that yields it.
    with pytest.raises(TypeError):
        class LateTimeout(Timeout):
            pass
