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
        return vsync.next_tick_time()

    p = sim.spawn(watcher())
    sim.run(until=15.0)
    assert p.value == pytest.approx(20.0)


def test_next_tick_time_honours_the_offset():
    sim = Simulator()
    vsync = VSyncSource(sim, period=10.0, offset=3.0)
    assert vsync.next_tick_time() == 13.0

    def watcher():
        return (yield vsync.wait_next())

    p = sim.spawn(watcher())
    sim.run(until=15.0)
    assert p.value == 13.0


def test_next_tick_time_is_the_tick_wait_next_delivers():
    """Each 60 Hz tick is the last one plus a period, which drifts a few
    ULPs off ``k * period``; the answer must be the delivered time exactly."""
    sim = Simulator()
    vsync = VSyncSource(sim)
    ticks = 3_000
    mismatches = []

    def watcher():
        for _ in range(ticks):
            expected = vsync.next_tick_time()
            delivered = yield vsync.wait_next()
            if delivered != expected:
                mismatches.append((expected, delivered))

    p = sim.spawn(watcher())
    sim.run(until=(ticks + 1) * VSYNC_PERIOD_MS)
    assert not p.alive
    assert mismatches == []


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
    assert queue.free_depth == 3
    queue.destroy()
    assert emulator.manager.live_regions == before


def test_buffer_rotation(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=2, size=MIB)
    seen = []

    def producer():
        for pts in (1.0, 2.0, 3.0):
            buffer = yield queue.dequeue_free()
            yield queue.queue_filled(buffer, pts=pts)

    def consumer():
        for _ in range(3):
            buffer = yield queue.acquire_filled()
            seen.append(buffer.pts)
            queue.release(buffer)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_dequeue_blocks_when_all_in_flight(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=1, size=MIB)
    order = []

    def producer():
        first = yield queue.dequeue_free()
        yield queue.queue_filled(first)
        order.append(("got-first", sim.now))
        second = yield queue.dequeue_free()  # blocked until release
        order.append(("got-second", sim.now))
        yield queue.queue_filled(second)

    def consumer():
        yield Timeout(5.0)
        buffer = yield queue.acquire_filled()
        queue.release(buffer)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert order[0] == ("got-first", 0.0)
    assert order[1][1] >= 5.0


def test_try_dequeue_free_nonblocking(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=1, size=MIB)
    first = queue.try_dequeue_free()
    assert first is not None
    assert queue.try_dequeue_free() is None
    queue.release(first)
    assert queue.try_dequeue_free() is not None


def test_release_clears_frame_state(queue_setup):
    sim, emulator = queue_setup
    queue = BufferQueue(sim, emulator, count=1, size=MIB)
    buffer = queue.try_dequeue_free()
    buffer.pts = 42.0
    buffer.payload = "frame"
    queue.release(buffer)
    fresh = queue.try_dequeue_free()
    assert fresh.pts is None
    assert fresh.payload is None


def test_invalid_queue_params_rejected(queue_setup):
    sim, emulator = queue_setup
    with pytest.raises(ConfigurationError):
        BufferQueue(sim, emulator, count=0, size=MIB)
    with pytest.raises(ConfigurationError):
        BufferQueue(sim, emulator, count=2, size=0)
