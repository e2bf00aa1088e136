"""Host hardware substrate.

Models the PC/server side of the architecture gap described in §2 of the
vSoC paper: modular devices with dedicated local memory, connected to main
memory by buses. The two machines from §5.1 (high-end desktop, middle-end
laptop) are available as presets.
"""

from repro.hw.bus import Bus
from repro.hw.device import (
    Camera,
    Cpu,
    DeviceKind,
    Gpu,
    Nic,
    PhysicalDevice,
)
from repro.hw.machine import (
    HIGH_END_DESKTOP,
    MIDDLE_END_LAPTOP,
    HostMachine,
    MachineSpec,
    build_machine,
)
from repro.hw.memory import MemoryPool, MemoryRegion
from repro.hw.thermal import ThermalModel

__all__ = [
    "MemoryPool",
    "MemoryRegion",
    "Bus",
    "DeviceKind",
    "PhysicalDevice",
    "Cpu",
    "Gpu",
    "Camera",
    "Nic",
    "ThermalModel",
    "HostMachine",
    "MachineSpec",
    "HIGH_END_DESKTOP",
    "MIDDLE_END_LAPTOP",
    "build_machine",
]
