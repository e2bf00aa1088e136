"""Unit tests for MIMD flow control (repro.core.flowcontrol)."""

import pytest

from repro.core import MimdFlowControl
from repro.errors import ConfigurationError
from repro.sim import Simulator, Timeout


def test_dispatch_within_window_is_immediate():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=4.0)
    assert fc.try_dispatch()
    assert fc.in_flight == 1


def test_window_shrinks_on_rejection():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=2.0)
    assert fc.try_dispatch()
    assert fc.try_dispatch()
    before = fc.window
    assert not fc.try_dispatch()
    assert fc.window == pytest.approx(before * 0.7)
    assert fc.throttle_events == 1


def test_window_grows_on_completion():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=8.0)
    fc.try_dispatch()
    before = fc.window
    fc.complete()
    assert fc.window == pytest.approx(before * 1.05)
    assert fc.in_flight == 0


def test_window_respects_bounds():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=1.0, min_window=1.0, max_window=2.0)
    fc.try_dispatch()
    assert not fc.try_dispatch()
    assert fc.window == 1.0  # cannot shrink below min
    for _ in range(100):
        fc.complete()
        fc.try_dispatch()
    assert fc.window <= 2.0


def test_blocked_dispatch_resumes_after_completion():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=1.0)
    timeline = []

    def guest():
        yield fc.dispatch()
        timeline.append(("first", sim.now))
        yield fc.dispatch()  # blocked: window is 1 (after shrink)
        timeline.append(("second", sim.now))

    def host():
        yield Timeout(10.0)
        fc.complete()

    sim.spawn(guest())
    sim.spawn(host())
    sim.run()
    assert timeline[0] == ("first", 0.0)
    assert timeline[1][1] == pytest.approx(10.0)
    assert fc.backlog == 0


def test_contended_dispatches_get_their_own_events_and_wake_fifo():
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=1.0)
    first = fc.dispatch()
    second, third = fc.dispatch(), fc.dispatch()
    assert first.fired and not second.fired and not third.fired
    assert len({id(first), id(second), id(third)}) == 3
    fc.complete()
    assert second.fired and not third.fired
    fc.complete()
    assert third.fired


def test_complete_without_dispatch_rejected():
    sim = Simulator()
    fc = MimdFlowControl(sim)
    with pytest.raises(ConfigurationError):
        fc.complete()


def test_invalid_configuration_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        MimdFlowControl(sim, initial_window=0.5, min_window=1.0)
    with pytest.raises(ConfigurationError):
        MimdFlowControl(sim, increase=0.9)
    with pytest.raises(ConfigurationError):
        MimdFlowControl(sim, decrease=1.5)


def test_window_oscillates_around_service_rate():
    """Classic MIMD: sustained over-dispatch keeps the window bounded."""
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=64.0)

    def guest():
        for _ in range(200):
            yield fc.dispatch()

    def host():
        # Retire slowly: two per ms.
        for _ in range(200):
            yield Timeout(0.5)
            fc.complete()

    sim.spawn(guest())
    sim.spawn(host())
    sim.run()
    assert fc.in_flight == 0
    assert fc.throttle_events > 0
    assert fc.window <= 256.0
