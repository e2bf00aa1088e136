"""Host machine assembly and the two evaluation machines of §5.1.

A :class:`MachineSpec` is a plain bag of calibration numbers; a
:class:`HostMachine` binds one spec to a simulator, instantiating memory
pools, buses and physical devices.

Calibration
-----------
The bandwidth figures below are *effective copy bandwidths* chosen so the
model lands near the paper's measured costs (Table 2) for 15.8 MiB UHD
frames:

* vSoC coherence = one host→GPU DMA: 15.8 MiB / 7.0 GB/s ≈ 2.4 ms
  (paper: 2.38 ms high-end); 15.8 / 4.8 ≈ 3.4 ms (paper: 3.45 ms laptop).
* GAE coherence = two crossings of the virtualization boundary:
  2 x 15.8 MiB / 4.6 GB/s ≈ 7.2 ms (paper: 7.05 ms); laptop
  2 x 15.8 / 2.9 ≈ 11.4 ms (paper: 11.27 ms).
* QEMU-KVM coherence = two host-side memcpys with software-device overhead:
  ≈ 6.2 ms (paper: 6.15 ms); laptop ≈ 9.3 ms (paper: 9.28 ms).

These are *not* datasheet numbers; they are the effective rates the paper's
instrumentation would have observed, inclusive of scatter-gather walking and
cache effects. They are the model's only fitted constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import HardwareError
from repro.hw.bus import Bus
from repro.hw.device import Camera, Cpu, Gpu, Nic, PhysicalDevice
from repro.hw.memory import MemoryPool
from repro.hw.thermal import ThermalModel
from repro.sim import Simulator
from repro.units import GIB, gb_per_s


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal model parameters (laptops only; desktops stay cool)."""

    heat_per_busy_ms: float = 1.0
    cool_per_ms: float = 0.25
    throttle_at: float = 20_000.0
    recover_at: float = 12_000.0
    throttled_factor: float = 0.35


@dataclass(frozen=True)
class MachineSpec:
    """All calibration constants for one host machine."""

    name: str
    # memory + buses (GB/s unless stated)
    host_memory_gib: float
    host_memcpy_gbps: float
    pcie_gbps: float
    pcie_latency_ms: float
    # virtualization boundary (virtio / VM-exit path)
    boundary_copy_gbps: float
    vm_exit_cost_ms: float
    page_map_cost_ms: float
    # CPU
    cpu_cores: int
    sw_decode_gbps: float
    sw_encode_gbps: float
    sw_convert_gbps: float
    thermal: Optional[ThermalSpec] = None
    # GPU
    gpu_vram_gib: float = 8.0
    render_fixed_ms: float = 0.5
    render_gbps: float = 40.0
    hw_decode_fixed_ms: float = 1.2
    hw_decode_gbps: float = 10.0
    hw_encode_fixed_ms: float = 2.0
    hw_encode_gbps: float = 8.0
    convert_gbps: float = 25.0
    # peripherals
    camera_capture_latency_ms: float = 25.0
    camera_frame_interval_ms: float = 1000.0 / 60.0
    nic_gbps: float = 0.125  # Gigabit Ethernet
    nic_latency_ms: float = 0.3


#: The 24-core i9-13900K + RTX 3060 desktop of §2.3 / §5.1.
HIGH_END_DESKTOP = MachineSpec(
    name="high-end-desktop",
    host_memory_gib=64.0,
    host_memcpy_gbps=11.0,
    pcie_gbps=7.0,
    pcie_latency_ms=0.01,
    boundary_copy_gbps=4.6,
    vm_exit_cost_ms=0.02,
    page_map_cost_ms=0.22,
    cpu_cores=24,
    # 300 Mbps UHD HEVC in software: ~26.5 ms/frame on the i9 (realistic
    # for a tuned multithreaded decoder; this is what pins GAE near 30 FPS).
    sw_decode_gbps=0.62,
    sw_encode_gbps=0.45,
    sw_convert_gbps=2.8,
    thermal=None,
    gpu_vram_gib=12.0,
    render_fixed_ms=0.5,
    render_gbps=40.0,
    # NVDEC-class hardware decode: ~9.2 ms per UHD frame (4K60 capable
    # with headroom, not instantaneous).
    hw_decode_fixed_ms=2.0,
    hw_decode_gbps=2.2,
    hw_encode_fixed_ms=3.0,
    hw_encode_gbps=1.8,
    convert_gbps=25.0,
    camera_capture_latency_ms=25.0,  # HIKVISION V148 USB camera
)

#: The 6-core i7-10750H + GTX 1660 Ti laptop of §5.1.
MIDDLE_END_LAPTOP = MachineSpec(
    name="middle-end-laptop",
    host_memory_gib=16.0,
    host_memcpy_gbps=7.0,
    pcie_gbps=4.8,
    pcie_latency_ms=0.012,
    boundary_copy_gbps=2.9,
    vm_exit_cost_ms=0.03,
    page_map_cost_ms=0.25,
    cpu_cores=6,
    # ~30 ms/frame software UHD decode pre-throttle: GAE starts near 30 FPS
    # on the laptop and collapses once the ThermalSpec throttles (§5.3).
    sw_decode_gbps=0.55,
    sw_encode_gbps=0.30,
    sw_convert_gbps=1.6,
    thermal=ThermalSpec(),
    gpu_vram_gib=6.0,
    render_fixed_ms=0.7,
    render_gbps=28.0,
    # GTX 1660 Ti NVDEC: ~12.9 ms per UHD frame.
    hw_decode_fixed_ms=2.6,
    hw_decode_gbps=1.6,
    hw_encode_fixed_ms=4.0,
    hw_encode_gbps=1.3,
    convert_gbps=17.0,
    camera_capture_latency_ms=15.0,  # integrated webcam: ~10 ms faster path
)


class HostMachine:
    """One simulated host: memory pools, buses, and physical devices.

    Attributes
    ----------
    host_memory / guest_memory:
        The host's RAM and the slice of it handed to the guest VM. Guest
        memory is what baseline emulators route SVM coherence through.
    memctl / pcie / boundary:
        Buses: host memcpy path, host↔GPU DMA path, and the virtio
        guest↔host copy path (two of which make a GAE-style coherence
        maintenance).
    """

    def __init__(self, sim: Simulator, spec: MachineSpec):
        self._sim = sim
        self.spec = spec

        self.host_memory = MemoryPool("host-ram", int(spec.host_memory_gib * GIB))
        self.guest_memory = MemoryPool("guest-ram", 8 * GIB)
        vram = MemoryPool("vram", int(spec.gpu_vram_gib * GIB))

        self.memctl = Bus(sim, "memctl", gb_per_s(spec.host_memcpy_gbps), latency=0.002)
        self.pcie = Bus(sim, "pcie", gb_per_s(spec.pcie_gbps), latency=spec.pcie_latency_ms)
        self.boundary = Bus(
            sim, "boundary", gb_per_s(spec.boundary_copy_gbps), latency=spec.vm_exit_cost_ms
        )

        thermal = None
        if spec.thermal is not None:
            thermal = ThermalModel(
                sim,
                heat_per_busy_ms=spec.thermal.heat_per_busy_ms,
                cool_per_ms=spec.thermal.cool_per_ms,
                throttle_at=spec.thermal.throttle_at,
                recover_at=spec.thermal.recover_at,
                throttled_factor=spec.thermal.throttled_factor,
            )
        self.cpu = Cpu(
            sim,
            cores=spec.cpu_cores,
            memcpy_bandwidth=gb_per_s(spec.host_memcpy_gbps),
            sw_decode_bandwidth=gb_per_s(spec.sw_decode_gbps),
            sw_encode_bandwidth=gb_per_s(spec.sw_encode_gbps),
            sw_convert_bandwidth=gb_per_s(spec.sw_convert_gbps),
            thermal=thermal,
        )
        self.gpu = Gpu(
            sim,
            vram=vram,
            pcie=self.pcie,
            render_fixed=spec.render_fixed_ms,
            render_bandwidth=gb_per_s(spec.render_gbps),
            hw_decode_fixed=spec.hw_decode_fixed_ms,
            hw_decode_bandwidth=gb_per_s(spec.hw_decode_gbps),
            hw_encode_fixed=spec.hw_encode_fixed_ms,
            hw_encode_bandwidth=gb_per_s(spec.hw_encode_gbps),
            convert_bandwidth=gb_per_s(spec.convert_gbps),
        )
        self.camera = Camera(
            sim,
            capture_latency=spec.camera_capture_latency_ms,
            frame_interval=spec.camera_frame_interval_ms,
        )
        self.nic = Nic(sim, bandwidth=gb_per_s(spec.nic_gbps), latency=spec.nic_latency_ms)

        self._devices: Dict[str, PhysicalDevice] = {
            dev.name: dev for dev in (self.cpu, self.gpu, self.camera, self.nic)
        }

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def devices(self) -> Dict[str, PhysicalDevice]:
        """All physical devices by name."""
        return dict(self._devices)

    def device(self, name: str) -> PhysicalDevice:
        try:
            return self._devices[name]
        except KeyError:
            raise HardwareError(f"machine {self.spec.name!r} has no device {name!r}") from None

    def add_device(self, device: PhysicalDevice) -> None:
        """Register a custom physical device (discrete codec/ISP topologies)."""
        if device.name in self._devices:
            raise HardwareError(f"duplicate device name {device.name!r}")
        self._devices[device.name] = device

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostMachine {self.spec.name!r} devices={sorted(self._devices)}>"


def build_machine(sim: Simulator, spec: MachineSpec = HIGH_END_DESKTOP) -> HostMachine:
    """Convenience constructor: bind ``spec`` to ``sim``."""
    return HostMachine(sim, spec)
