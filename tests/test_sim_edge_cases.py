"""Edge-case tests for the simulation kernel and primitives."""

import pytest

from repro.sim import FifoQueue, SimEvent, Simulator, Timeout


def test_process_join_chain():
    """A joins B joins C: return values flow back up the chain."""
    sim = Simulator()

    def c():
        yield Timeout(1.0)
        return 1

    def b():
        value = yield sim.spawn(c(), name="c")
        return value + 1

    def a():
        value = yield sim.spawn(b(), name="b")
        return value + 1

    p = sim.spawn(a(), name="a")
    sim.run()
    assert p.value == 3


def test_generator_cleanup_on_exception_mid_yield_from():
    """An exception inside a nested `yield from` unwinds cleanly."""
    sim = Simulator()
    cleaned = []

    def inner():
        try:
            yield Timeout(10.0)
        finally:
            cleaned.append("inner")

    def outer():
        try:
            yield from inner()
        except RuntimeError:
            cleaned.append("caught")

    proc = sim.spawn(outer(), name="outer")

    def failer():
        yield Timeout(1.0)
        proc._gen.throw(RuntimeError("injected"))

    # directly throwing into a suspended generator is not public API, but
    # the kernel must not corrupt its state when user code does it
    sim.spawn(failer(), name="failer")
    with pytest.raises(Exception):
        sim.run()
    assert "inner" in cleaned


def test_many_waiters_on_one_event_scale():
    sim = Simulator()
    event = SimEvent(sim)
    done = []

    def waiter(i):
        yield event
        done.append(i)

    for i in range(500):
        sim.spawn(waiter(i))
    sim.schedule(1.0, event.fire)
    sim.run()
    assert len(done) == 500
    assert done == sorted(done)  # FIFO wake order


def test_queue_put_to_waiting_getter_bypasses_buffer():
    sim = Simulator()
    queue = FifoQueue(sim, capacity=1)
    got = []

    def consumer():
        item = yield queue.get()
        got.append(item)

    sim.spawn(consumer())

    def producer():
        yield Timeout(1.0)
        yield queue.put("direct")

    sim.spawn(producer())
    sim.run()
    assert got == ["direct"]
    assert len(queue) == 0


def test_simultaneous_timeouts_preserve_spawn_order():
    sim = Simulator()
    order = []

    def worker(i):
        yield Timeout(5.0)
        order.append(i)

    for i in range(20):
        sim.spawn(worker(i))
    sim.run()
    assert order == list(range(20))


def test_schedule_zero_delay_runs_after_current_event():
    sim = Simulator()
    order = []

    def first():
        sim.schedule(0.0, order.append, "scheduled")
        order.append("inline")
        yield Timeout(0.0)
        order.append("resumed")

    sim.spawn(first())
    sim.run()
    assert order == ["inline", "scheduled", "resumed"]
