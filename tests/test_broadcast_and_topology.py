"""Tests for the broadcast-protocol extension and custom machine topologies."""

import functools
import random

import pytest

from repro.apps import UhdVideoApp
from repro.emulators import make_vsoc
from repro.experiments.runner import run_app
from repro.hw import DeviceKind, PhysicalDevice, build_machine
from repro.hw.bus import Bus
from repro.hw.device import OpCost
from repro.hw.memory import MemoryPool
from repro.sim import Simulator
from repro.units import GIB, UHD_FRAME_BYTES, gb_per_s


# --- broadcast protocol ---------------------------------------------------------

def test_broadcast_factory_flag():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0), broadcast=True)
    assert emulator.protocol.name == "unified-broadcast"
    assert emulator.engine is None
    assert emulator.name == "vSoC(broadcast)"


def test_broadcast_pushes_writes_everywhere():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0), broadcast=True)

    def app():
        rid = emulator.svm_alloc(UHD_FRAME_BYTES)
        write = yield from emulator.stage(
            "codec", "hw_decode", UHD_FRAME_BYTES, writes=[rid]
        )
        yield write.done
        return rid

    p = sim.spawn(app())
    sim.run()
    region = emulator.manager.get(p.value)
    # written at host, broadcast to the GPU although nobody asked
    assert region.is_valid_at("host")
    assert region.is_valid_at("gpu")


def test_broadcast_moves_more_bus_bytes_than_prefetch():
    """The §7 rejection, quantified: similar FPS, ~2x the PCIe traffic."""
    prefetch = run_app(UhdVideoApp(), "vSoC", duration_ms=5_000.0)
    broadcast = run_app(
        UhdVideoApp(), "vSoC", duration_ms=5_000.0,
        factory=functools.partial(make_vsoc, broadcast=True),
    )
    assert broadcast.result.fps > 0.9 * prefetch.result.fps
    assert (broadcast.emulator.machine.pcie.bytes_moved
            > 1.5 * prefetch.emulator.machine.pcie.bytes_moved)


# --- custom topology: discrete codec/ISP engines ---------------------------------

def test_discrete_engine_topology():
    """A codec and an ISP as standalone physical devices with local memory:
    the copy planner routes device→device copies over both links."""
    sim = Simulator()
    machine = build_machine(sim)
    codec_link = Bus(sim, "codec-link", gb_per_s(5.0), latency=0.02)
    codec = PhysicalDevice(
        sim, "hwcodec", DeviceKind.CODEC,
        local_memory=MemoryPool("codec-mem", GIB), link=codec_link,
        op_costs={"hw_decode": OpCost(fixed=1.0, bandwidth=gb_per_s(3.0))},
    )
    machine.add_device(codec)
    isp_link = Bus(sim, "isp-link", gb_per_s(4.0), latency=0.02)
    isp = PhysicalDevice(
        sim, "isp", DeviceKind.ISP,
        local_memory=MemoryPool("isp-mem", GIB), link=isp_link,
        op_costs={"convert": OpCost(fixed=0.05, bandwidth=gb_per_s(6.0))},
    )
    machine.add_device(isp)

    from repro.core.coherence import CopyPlanner

    planner = CopyPlanner(sim, machine)
    legs = planner.unified_legs("hwcodec", "isp")
    assert legs == [codec_link, isp_link]
    # two-leg copy cost = both transfers
    expected = (codec_link.transfer_time(UHD_FRAME_BYTES)
                + isp_link.transfer_time(UHD_FRAME_BYTES))
    assert planner.estimate_unified("hwcodec", "isp", UHD_FRAME_BYTES) == pytest.approx(expected)


def test_cpu_overhead_fraction_small():
    """§5.2: engine bookkeeping stays below 1% of one core."""
    run = run_app(UhdVideoApp(), "vSoC", duration_ms=5_000.0)
    fraction = run.emulator.engine.stats.cpu_overhead_fraction(5_000.0)
    assert 0.0 < fraction < 0.01
