"""Unit tests for physical device models (repro.hw.device)."""

import pytest

from repro.errors import HardwareError
from repro.hw import Bus, Camera, Cpu, DeviceKind, Gpu, MemoryPool, Nic, PhysicalDevice
from repro.hw.device import OpCost
from repro.sim import Simulator
from repro.units import GIB, MIB, UHD_FRAME_BYTES, gb_per_s


def make_cpu(sim, thermal=None):
    return Cpu(
        sim,
        cores=8,
        memcpy_bandwidth=gb_per_s(10.0),
        sw_decode_bandwidth=gb_per_s(1.5),
        sw_encode_bandwidth=gb_per_s(1.0),
        sw_convert_bandwidth=gb_per_s(3.0),
        thermal=thermal,
    )


def make_gpu(sim):
    vram = MemoryPool("vram", 8 * GIB)
    pcie = Bus(sim, "pcie", gb_per_s(7.0), latency=0.01)
    return Gpu(
        sim,
        vram=vram,
        pcie=pcie,
        render_fixed=0.5,
        render_bandwidth=gb_per_s(40.0),
        hw_decode_fixed=1.2,
        hw_decode_bandwidth=gb_per_s(10.0),
        hw_encode_fixed=2.0,
        hw_encode_bandwidth=gb_per_s(8.0),
        convert_bandwidth=gb_per_s(25.0),
    )


def test_opcost_fixed_plus_linear():
    cost = OpCost(fixed=1.0, bandwidth=100.0)
    assert cost.time(0) == 1.0
    assert cost.time(500) == 6.0


def test_opcost_size_independent():
    cost = OpCost(fixed=2.0, bandwidth=None)
    assert cost.time(10**9) == 2.0


def test_unknown_op_raises():
    sim = Simulator()
    cpu = make_cpu(sim)
    with pytest.raises(HardwareError, match="does not support"):
        cpu.op_time("levitate")


def test_supports():
    sim = Simulator()
    cpu = make_cpu(sim)
    assert cpu.supports("sw_decode")
    assert not cpu.supports("hw_decode")


def test_run_op_advances_clock_and_stats():
    sim = Simulator()
    gpu = make_gpu(sim)
    expected = gpu.op_time("hw_decode", UHD_FRAME_BYTES)

    def proc():
        yield from gpu.run_op("hw_decode", UHD_FRAME_BYTES)

    sim.spawn(proc())
    sim.run()
    assert sim.now == pytest.approx(expected)
    assert gpu.ops_executed == 1
    assert gpu.busy_time == pytest.approx(expected)


def test_ops_on_one_device_serialize():
    sim = Simulator()
    gpu = make_gpu(sim)
    done = []

    def proc(label):
        yield from gpu.run_op("present")  # 0.05 ms fixed
        done.append((label, sim.now))

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert done[0][0] == "a"
    assert done[1][1] == pytest.approx(0.10)


def test_killed_queued_op_does_not_wedge_the_engine():
    sim = Simulator()
    dev = PhysicalDevice(
        sim, "widget", DeviceKind.ISP, op_costs={"work": OpCost(fixed=10.0)}
    )
    done = []

    def proc(label):
        yield from dev.run_op("work")
        done.append((label, sim.now))

    sim.spawn(proc("holder"))
    victim = sim.spawn(proc("victim"))
    sim.spawn(proc("third"))
    sim.schedule(5.0, victim.kill)
    sim.run()
    assert done == [("holder", 10.0), ("third", 20.0)]


def test_gpu_decode_time_in_realistic_band():
    """UHD hw decode should land in the low single-digit ms (NVDEC-like)."""
    sim = Simulator()
    gpu = make_gpu(sim)
    t = gpu.op_time("hw_decode", UHD_FRAME_BYTES)
    assert 1.5 < t < 5.0


def test_cpu_sw_decode_slower_than_gpu_hw_decode():
    sim = Simulator()
    cpu, gpu = make_cpu(sim), make_gpu(sim)
    assert cpu.op_time("sw_decode", UHD_FRAME_BYTES) > gpu.op_time(
        "hw_decode", UHD_FRAME_BYTES
    )


def test_camera_capture_latency():
    sim = Simulator()
    cam = Camera(sim, capture_latency=25.0, frame_interval=16.67)
    assert cam.op_time("capture") == 25.0
    assert cam.kind is DeviceKind.CAMERA


def test_camera_bad_interval_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        Camera(sim, capture_latency=10.0, frame_interval=0.0)


def test_nic_recv_scales_with_size():
    sim = Simulator()
    nic = Nic(sim, bandwidth=gb_per_s(0.125), latency=0.3)
    small = nic.op_time("recv", 1000)
    large = nic.op_time("recv", MIB)
    assert large > small > 0.3


def test_cpu_has_no_local_memory():
    """CPU operates on host memory directly — planner relies on this."""
    sim = Simulator()
    cpu = make_cpu(sim)
    assert cpu.local_memory is None
    assert cpu.link is None


def test_gpu_has_local_memory_and_link():
    sim = Simulator()
    gpu = make_gpu(sim)
    assert gpu.local_memory is not None
    assert gpu.link is not None


def test_zero_core_cpu_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        Cpu(sim, cores=0, memcpy_bandwidth=1.0, sw_decode_bandwidth=1.0,
            sw_encode_bandwidth=1.0, sw_convert_bandwidth=1.0)


def test_generic_device_custom_ops():
    sim = Simulator()
    dev = PhysicalDevice(
        sim, "widget", DeviceKind.ISP, op_costs={"noop": OpCost(fixed=0.0)}
    )

    def proc():
        duration = yield from dev.run_op("noop")
        return duration

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 0.0
