"""Unit tests for buses (repro.hw.bus)."""

import pytest

from repro.errors import HardwareError
from repro.hw import Bus
from repro.sim import Simulator
from repro.units import MIB, gb_per_s


def test_transfer_time_formula():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=gb_per_s(1.0), latency=0.5)
    # 1 GB/s = 1e6 bytes/ms; 1 MiB / 1e6 B/ms ≈ 1.048576 ms, plus latency.
    assert bus.transfer_time(MIB) == pytest.approx(0.5 + MIB / 1e6)


def test_zero_byte_transfer_is_free():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=gb_per_s(1.0), latency=0.5)
    assert bus.transfer_time(0) == 0.0


def test_transfer_advances_clock_and_returns_duration():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0, latency=1.0)  # 1000 B/ms
    results = []

    def proc():
        elapsed = yield from bus.transfer(5000)
        results.append((sim.now, elapsed))

    sim.spawn(proc())
    sim.run()
    assert results == [(6.0, 6.0)]  # 1 ms latency + 5000/1000 ms


def test_contending_transfers_serialize_fifo():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0, latency=0.0)
    done = []

    def proc(label):
        yield from bus.transfer(1000)
        done.append((label, sim.now))

    for label in ("a", "b"):
        sim.spawn(proc(label))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_killed_queued_transfer_does_not_wedge_the_bus():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0, latency=0.0)
    done = []

    def proc(label):
        yield from bus.transfer(10_000)
        done.append((label, sim.now))

    sim.spawn(proc("holder"))
    victim = sim.spawn(proc("victim"))
    sim.spawn(proc("third"))
    sim.schedule(5.0, victim.kill)
    sim.run()
    assert done == [("holder", 10.0), ("third", 20.0)]


@pytest.mark.parametrize("kill_at", [0.0, 5.0])
def test_killed_holder_frees_the_bus(kill_at):
    """A transfer killed while holding an uncontended grant gives the bus
    back, whether it is parked at the grant (0 ms) or mid-transfer."""
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0, latency=0.0)
    done = []

    def proc(label):
        yield from bus.transfer(10_000)
        done.append((label, sim.now))

    holder = sim.spawn(proc("holder"))
    sim.schedule(kill_at, holder.kill)
    sim.spawn(proc("next"))
    sim.run()
    assert done == [("next", kill_at + 10.0)]


def test_statistics_accumulate():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0, latency=0.0)

    def proc():
        yield from bus.transfer(500)
        yield from bus.transfer(1500)

    sim.spawn(proc())
    sim.run()
    assert bus.bytes_moved == 2000
    assert bus.transfer_count == 2
    assert bus.busy_time == pytest.approx(2.0)  # 2000 bytes at 1000 bytes/ms


def test_load_reduces_effective_bandwidth():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0)
    bus.set_load(0.5)
    assert bus.effective_bandwidth == 500.0
    assert bus.transfer_time(1000) == pytest.approx(2.0)


def test_invalid_load_rejected():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0)
    with pytest.raises(HardwareError):
        bus.set_load(1.0)
    with pytest.raises(HardwareError):
        bus.set_load(-0.1)


def test_invalid_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        Bus(sim, "bad", bandwidth=0.0)


def test_negative_transfer_rejected():
    sim = Simulator()
    bus = Bus(sim, "b", bandwidth=1000.0)
    with pytest.raises(HardwareError):
        bus.transfer_time(-1)


def test_constructor_rejects_non_finite_and_non_positive_parameters():
    sim = Simulator()
    for bad_bw in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(HardwareError, match="bandwidth must be finite and positive"):
            Bus(sim, "b", bandwidth=bad_bw)
    for bad_lat in (-0.1, float("nan"), float("inf")):
        with pytest.raises(HardwareError, match="latency must be finite"):
            Bus(sim, "b", bandwidth=1000.0, latency=bad_lat)


def test_set_load_rejects_invalid_values():
    sim = Simulator()
    bus = Bus(sim, "pcie", bandwidth=1000.0)
    for bad in (-0.1, 1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(HardwareError, match=r"load must be finite and in \[0, 1\)"):
            bus.set_load(bad)
    # The message names the offending bus and value for debuggability.
    with pytest.raises(HardwareError, match=r"bus 'pcie' load .* got nan"):
        bus.set_load(float("nan"))
    assert bus.effective_bandwidth == 1000.0  # state unchanged by rejections
