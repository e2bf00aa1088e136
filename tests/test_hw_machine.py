"""Unit tests for host machine assembly and presets (repro.hw.machine)."""

import pytest

from repro.errors import HardwareError
from repro.hw import (
    HIGH_END_DESKTOP,
    MIDDLE_END_LAPTOP,
    DeviceKind,
    PhysicalDevice,
    build_machine,
)
from repro.hw.device import OpCost
from repro.sim import Simulator
from repro.units import UHD_FRAME_BYTES, gb_per_s, to_gb_per_s


def test_presets_have_expected_names():
    assert HIGH_END_DESKTOP.name == "high-end-desktop"
    assert MIDDLE_END_LAPTOP.name == "middle-end-laptop"


def test_high_end_has_no_thermal_model():
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    assert machine.cpu.thermal is None


def test_middle_end_has_thermal_model():
    sim = Simulator()
    machine = build_machine(sim, MIDDLE_END_LAPTOP)
    assert machine.cpu.thermal is not None


def test_devices_registered():
    sim = Simulator()
    machine = build_machine(sim)
    names = set(machine.devices)
    assert {"cpu", "gpu", "camera", "nic"} <= names
    assert machine.device("gpu").kind is DeviceKind.GPU


def test_unknown_device_raises():
    sim = Simulator()
    machine = build_machine(sim)
    with pytest.raises(HardwareError):
        machine.device("quantum-accelerator")


def test_add_custom_device():
    sim = Simulator()
    machine = build_machine(sim)
    isp = PhysicalDevice(
        sim, "isp", DeviceKind.ISP, link=machine.pcie,
        op_costs={"convert": OpCost(fixed=0.05, bandwidth=gb_per_s(5.0))},
    )
    machine.add_device(isp)
    assert machine.device("isp") is isp
    with pytest.raises(HardwareError, match="duplicate"):
        machine.add_device(isp)


def test_vsoc_coherence_calibration_high_end():
    """One host→GPU DMA of a UHD frame ≈ 2.4 ms (paper Table 2: 2.38 ms)."""
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    t = machine.pcie.transfer_time(UHD_FRAME_BYTES)
    assert 2.0 < t < 2.8


def test_gae_coherence_calibration_high_end():
    """Two boundary crossings of a UHD frame ≈ 7.2 ms (paper: 7.05 ms)."""
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    t = 2 * machine.boundary.transfer_time(UHD_FRAME_BYTES)
    assert 6.5 < t < 8.0


def test_vsoc_coherence_calibration_middle_end():
    """Laptop PCIe DMA of a UHD frame ≈ 3.45 ms (paper Table 2)."""
    sim = Simulator()
    machine = build_machine(sim, MIDDLE_END_LAPTOP)
    t = machine.pcie.transfer_time(UHD_FRAME_BYTES)
    assert 3.0 < t < 4.0


def test_gae_coherence_calibration_middle_end():
    """Two laptop boundary crossings ≈ 11.4 ms (paper: 11.27 ms)."""
    sim = Simulator()
    machine = build_machine(sim, MIDDLE_END_LAPTOP)
    t = 2 * machine.boundary.transfer_time(UHD_FRAME_BYTES)
    assert 10.5 < t < 12.5


def test_camera_latency_gap_between_machines():
    """Laptop's integrated camera is ~10 ms faster than the USB camera (§5.3)."""
    gap = HIGH_END_DESKTOP.camera_capture_latency_ms - MIDDLE_END_LAPTOP.camera_capture_latency_ms
    assert gap == pytest.approx(10.0)


def test_bus_bandwidth_roundtrip():
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    assert to_gb_per_s(machine.pcie.bandwidth) == pytest.approx(7.0)


def test_guest_memory_pool_exists():
    sim = Simulator()
    machine = build_machine(sim)
    assert machine.guest_memory.capacity > 0
    assert machine.guest_memory is not machine.host_memory
