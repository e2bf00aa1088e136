"""Unit tests for virtual command fences (repro.core.fence)."""

import pytest

from repro.core import FenceState, VirtualFenceTable
from repro.core.fence import FENCE_TABLE_CAPACITY
from repro.errors import FenceError, FenceTableFullError
from repro.sim import Simulator, Timeout
from repro.units import PAGE_SIZE


def test_table_fits_in_one_page():
    sim = Simulator()
    table = VirtualFenceTable(sim)
    assert table.shared_bytes <= PAGE_SIZE
    assert table.capacity == FENCE_TABLE_CAPACITY == 512


def test_signal_wakes_waiter():
    sim = Simulator()
    table = VirtualFenceTable(sim)
    fence = table.allocate()
    order = []

    def gpu_side():
        yield fence.wait()
        order.append(("read", sim.now))

    def codec_side():
        yield Timeout(5.0)
        fence.signal()
        order.append(("signalled", sim.now))

    sim.spawn(gpu_side())
    sim.spawn(codec_side())
    sim.run()
    assert order == [("signalled", 5.0), ("read", 5.0)]


def test_multiple_waits_on_one_signal_allowed():
    sim = Simulator()
    table = VirtualFenceTable(sim)
    fence = table.allocate()
    woken = []

    def waiter(label):
        yield fence.wait()
        woken.append(label)

    for label in "abc":
        sim.spawn(waiter(label))
    sim.schedule(1.0, fence.signal)
    sim.run()
    assert sorted(woken) == ["a", "b", "c"]
    assert fence.waiters == 3


def test_wait_after_signal_fires_immediately():
    sim = Simulator()
    table = VirtualFenceTable(sim)
    fence = table.allocate()
    fence.signal()
    seen = []

    def late():
        yield fence.wait()
        seen.append(sim.now)

    sim.spawn(late())
    sim.run()
    assert seen == [0.0]


def test_double_signal_rejected():
    sim = Simulator()
    fence = VirtualFenceTable(sim).allocate()
    fence.signal()
    with pytest.raises(FenceError):
        fence.signal()


def test_indices_unique_while_live():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=8)
    fences = [table.allocate() for _ in range(6)]
    assert len({f.index for f in fences}) == 6


def test_recycling_reclaims_signalled_slots():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=8)
    fences = [table.allocate() for _ in range(7)]
    for f in fences:
        f.signal()
    # Free supply is low (1 of 8): next allocation triggers recycling.
    extra = table.allocate()
    assert table.recycled_total >= 1
    assert extra.state is FenceState.PENDING
    assert fences[0].state is FenceState.RECYCLED


def test_table_full_when_all_pending():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=4)
    for _ in range(4):
        table.allocate()
    with pytest.raises(FenceTableFullError):
        table.allocate()


def test_wait_on_recycled_fence_fires_immediately():
    """Recycled implies signalled: a stale waiter must not block (§4)."""
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=4)
    fences = [table.allocate() for _ in range(4)]
    for f in fences:
        f.signal()
    table.allocate()  # forces recycling
    recycled = next(f for f in fences if f.state is FenceState.RECYCLED)
    seen = []

    def waiter():
        yield recycled.wait()
        seen.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert seen == [0.0]


def test_get_by_index():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=4)
    fence = table.allocate()
    assert table.get(fence.index) is fence
    with pytest.raises(FenceError):
        table.get(99)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(FenceError):
        VirtualFenceTable(sim, capacity=0)
