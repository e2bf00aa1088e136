"""Unit tests for VSync and BufferQueue (repro.guest)."""

import random

import pytest

from repro.emulators import make_vsoc
from repro.errors import ConfigurationError
from repro.guest import BufferQueue, VSyncSource
from repro.hw import build_machine
from repro.sim import Simulator, Timeout
from repro.units import MIB, VSYNC_PERIOD_MS


# --- VSyncSource ------------------------------------------------------------

def test_vsync_ticks_at_period():
    sim = Simulator()
    vsync = VSyncSource(sim, period=10.0)
    times = []

    def watcher():
        for _ in range(3):
            t = yield vsync.wait_next()
            times.append(t)

    sim.spawn(watcher())
    sim.run(until=100.0)
    assert times == [10.0, 20.0, 30.0]
    assert vsync.ticks == 10


def test_vsync_default_period_is_60hz():
    sim = Simulator()
    vsync = VSyncSource(sim)
    assert vsync.period == pytest.approx(VSYNC_PERIOD_MS)


def test_wait_after_tick_waits_full_period():
    sim = Simulator()
    vsync = VSyncSource(sim, period=10.0)
    times = []

    def watcher():
        yield vsync.wait_next()
        yield Timeout(3.0)  # miss part of the window
        t = yield vsync.wait_next()
        times.append(t)

    sim.spawn(watcher())
    sim.run(until=50.0)
    assert times == [20.0]


def test_next_tick_time():
    sim = Simulator()
    vsync = VSyncSource(sim, period=10.0)

    def watcher():
        yield Timeout(12.0)
        return (yield vsync.wait_next())

    p = sim.spawn(watcher())
    sim.run(until=25.0)
    assert p.value == 20.0


def test_next_tick_time_honours_the_offset():
    sim = Simulator()
    vsync = VSyncSource(sim, period=10.0, offset=3.0)

    def watcher():
        return (yield vsync.wait_next())

    p = sim.spawn(watcher())
    sim.run(until=15.0)
    assert p.value == 13.0


def test_next_tick_time_is_the_tick_wait_next_delivers():
    """A 60 Hz tick is the last one plus a period, which drifts a few ULPs
    off ``k * period``; each delivered value is the clock at delivery."""
    sim = Simulator()
    vsync = VSyncSource(sim)
    ticks = 3_000
    delivered = []
    mismatches = []

    def watcher():
        for _ in range(ticks):
            tick = yield vsync.wait_next()
            if tick != sim.now:
                mismatches.append((tick, sim.now))
            delivered.append(tick)

    p = sim.spawn(watcher())
    sim.run(until=(ticks + 1) * VSYNC_PERIOD_MS)
    assert not p.alive
    assert mismatches == []
    assert delivered[0] == VSYNC_PERIOD_MS
    assert all(b == a + VSYNC_PERIOD_MS for a, b in zip(delivered, delivered[1:]))


def test_invalid_period_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        VSyncSource(sim, period=0.0)


# --- BufferQueue -------------------------------------------------------------

@pytest.fixture
def queue_setup():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    return sim, emulator


def test_buffer_queue_allocates_svm_regions(queue_setup):
    sim, emulator = queue_setup
    before = emulator.manager.live_regions
    queue = BufferQueue(sim, emulator, count=3, size=MIB)
    assert emulator.manager.live_regions == before + 3
    buffers = [queue.try_dequeue_free() for _ in range(3)]
    assert len({b.region_id for b in buffers}) == 3
    assert queue.try_dequeue_free() is None


def test_buffer_rotation(queue_setup):
    """Released buffers return to the producer in release order."""
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=2, size=MIB)
    first, second = queue.try_dequeue_free(), queue.try_dequeue_free()
    seen = []

    def producer():
        for _ in range(3):
            buffer = yield queue.dequeue_free()
            seen.append(buffer)
            queue.release(buffer)

    queue.release(second)
    queue.release(first)
    sim.spawn(producer())
    sim.run()
    assert seen == [second, first, second]


def test_dequeue_blocks_when_all_in_flight(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=1, size=MIB)
    in_flight = []
    order = []

    def producer():
        first = yield queue.dequeue_free()
        in_flight.append(first)
        order.append(("got-first", sim.now))
        second = yield queue.dequeue_free()  # blocked until release
        order.append(("got-second", sim.now))
        assert second is first

    def consumer():
        yield Timeout(5.0)
        queue.release(in_flight.pop())

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert order == [("got-first", 0.0), ("got-second", 5.0)]


def test_try_dequeue_free_nonblocking(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=1, size=MIB)
    first = queue.try_dequeue_free()
    assert first is not None
    assert queue.try_dequeue_free() is None
    queue.release(first)
    assert queue.try_dequeue_free() is not None


def test_invalid_queue_params_rejected(queue_setup):
    sim, emulator = queue_setup
    with pytest.raises(ConfigurationError):
        BufferQueue(sim, emulator, count=0, size=MIB)
    with pytest.raises(ConfigurationError):
        BufferQueue(sim, emulator, count=2, size=0)
