"""Physical device models.

These are the PC/server devices of §2.2: modular, connected to main memory
via buses, many with dedicated local memory. A device executes named
operations ("decode", "render", "convert", ...) whose durations come from a
per-device cost table: ``time = fixed + nbytes / bandwidth``, optionally
scaled by a :class:`~repro.hw.thermal.ThermalModel`.

Note the mapping the paper emphasizes (§3.2): virtual devices do **not**
correspond one-to-one to physical devices. On a PC, the display is managed
by the GPU, hardware video decode (NVDEC) is an engine *on* the GPU, and ISP
colorspace conversion runs either in-GPU (YUVConverter) or on the CPU
(libswscale). The machine presets therefore expose only CPU, GPU, camera and
NIC as physical devices. A custom machine's discrete engine (a standalone
codec, ISP or NPU) is a plain :class:`PhysicalDevice` given its kind, link,
local memory and op costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.errors import HardwareError
from repro.hw.bus import Bus
from repro.hw.memory import MemoryPool
from repro.hw.thermal import ThermalModel
from repro.sim import Mutex, Simulator, Timeout


class DeviceKind(enum.Enum):
    """Physical device categories appearing in the physical hypergraph layer."""

    CPU = "cpu"
    GPU = "gpu"
    CODEC = "codec"
    ISP = "isp"
    CAMERA = "camera"
    DISPLAY = "display"
    NIC = "nic"


@dataclass(frozen=True)
class OpCost:
    """Cost model for one operation: ``fixed + nbytes / bandwidth``.

    ``bandwidth`` is bytes/ms; ``None`` means the op is size-independent.
    """

    fixed: float = 0.0
    bandwidth: Optional[float] = None

    def time(self, nbytes: int = 0) -> float:
        total = self.fixed
        if self.bandwidth is not None and nbytes > 0:
            total += nbytes / self.bandwidth
        return total


class PhysicalDevice:
    """One host device: an op executor with optional local memory and link.

    Operations on a device are serialized (one engine), which is how
    head-of-line effects emerge in the ordering experiments. ``local_memory``
    being ``None`` means the device operates directly on host main memory
    (software devices, CPU) — the copy-path planner in
    :mod:`repro.core.coherence` uses this to decide whether a bus transfer
    is needed at all.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        kind: DeviceKind,
        local_memory: Optional[MemoryPool] = None,
        link: Optional[Bus] = None,
        op_costs: Optional[Dict[str, OpCost]] = None,
        thermal: Optional[ThermalModel] = None,
    ):
        self._sim = sim
        self.name = name
        self.kind = kind
        self.local_memory = local_memory
        self.link = link
        self.op_costs = dict(op_costs or {})
        self.thermal = thermal
        self._exec_lock = Mutex(sim, name=f"dev:{name}")
        self.busy_time = 0.0
        self.ops_executed = 0
        self.stalls_injected = 0
        self.resets = 0

    # -- cost queries ------------------------------------------------------
    def supports(self, op: str) -> bool:
        return op in self.op_costs

    def op_time(self, op: str, nbytes: int = 0, scale: float = 1.0) -> float:
        """Duration ``op`` would take now, including thermal slowdown.

        ``scale`` multiplies the base cost — emulator models use it to
        express per-implementation inefficiency (e.g. a paravirtual GPU
        stack that renders 2x slower than native).
        """
        try:
            cost = self.op_costs[op]
        except KeyError:
            raise HardwareError(f"device {self.name!r} does not support op {op!r}") from None
        base = cost.time(nbytes) * scale
        if self.thermal is not None:
            base /= self.thermal.speed_factor()
        return base

    # -- execution ----------------------------------------------------------
    def run_op(self, op: str, nbytes: int = 0, scale: float = 1.0) -> Generator[Any, Any, float]:
        """Process: execute ``op``, serialized with this device's other ops.

        Returns the execution time (excluding queueing). Thermal heat is
        charged in full-speed-equivalent ms so a throttled device keeps
        itself hot while loaded.
        """
        cost = self.op_costs.get(op)
        if cost is None or self.thermal is not None:
            duration = self.op_time(op, nbytes, scale)  # raises on an unknown op
        else:
            duration = cost.time(nbytes) * scale
        grant = self._exec_lock.acquire()
        try:
            yield grant
        except GeneratorExit:
            # Killed while queued (a crashed executor): give the turn back.
            self._exec_lock.cancel(grant)
            raise
        try:
            if duration > 0:
                yield Timeout(duration)
            self.busy_time += duration
            self.ops_executed += 1
            if self.thermal is not None:
                speed = self.thermal.speed_factor()
                self.thermal.note_busy(duration * speed)
        finally:
            self._exec_lock.release()
        return duration

    # -- fault injection ----------------------------------------------------
    def inject_stall(self, duration_ms: float) -> None:
        """Freeze the device: hold its engine lock for ``duration_ms``.

        Queued and newly submitted ops wait behind the stall exactly like
        they would behind a wedged firmware command — no exception surfaces,
        work just stops flowing until the stall ends.
        """
        if duration_ms <= 0:
            raise HardwareError(f"stall duration must be positive, got {duration_ms}")
        self.stalls_injected += 1

        def _stall() -> Generator[Any, Any, None]:
            yield self._exec_lock.acquire()
            try:
                yield Timeout(duration_ms)
                self.busy_time += duration_ms
            finally:
                self._exec_lock.release()

        self._sim.spawn(_stall(), name=f"{self.name}.stall{self.stalls_injected}")

    def inject_reset(self, downtime_ms: float) -> None:
        """Reset the device: a stall plus clearing any thermal throttle state."""
        if downtime_ms <= 0:
            raise HardwareError(f"reset downtime must be positive, got {downtime_ms}")
        self.resets += 1
        if self.thermal is not None:
            self.thermal.reset()

        def _reset() -> Generator[Any, Any, None]:
            yield self._exec_lock.acquire()
            try:
                yield Timeout(downtime_ms)
            finally:
                self._exec_lock.release()

        self._sim.spawn(_reset(), name=f"{self.name}.reset{self.resets}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} kind={self.kind.value}>"


class Cpu(PhysicalDevice):
    """Host CPU: memcpy engine, software decode/encode/scale fallbacks.

    ``sw_decode`` bandwidth is in *output* bytes/ms: decoding one 15.8 MiB
    UHD frame at 1.4 GB/s takes ~11.3 ms — tight against the 16.7 ms frame
    budget, which is why software decode collapses on the throttled laptop.
    """

    def __init__(
        self,
        sim: Simulator,
        cores: int,
        memcpy_bandwidth: float,
        sw_decode_bandwidth: float,
        sw_encode_bandwidth: float,
        sw_convert_bandwidth: float,
        thermal: Optional[ThermalModel] = None,
        name: str = "cpu",
    ):
        if cores <= 0:
            raise HardwareError("cpu must have at least one core")
        super().__init__(
            sim,
            name,
            DeviceKind.CPU,
            local_memory=None,  # the CPU *is* host memory's owner
            link=None,
            op_costs={
                "memcpy": OpCost(fixed=0.005, bandwidth=memcpy_bandwidth),
                "sw_decode": OpCost(fixed=0.4, bandwidth=sw_decode_bandwidth),
                "sw_encode": OpCost(fixed=0.5, bandwidth=sw_encode_bandwidth),
                "sw_convert": OpCost(fixed=0.1, bandwidth=sw_convert_bandwidth),
                "track": OpCost(fixed=2.2),  # AR pose tracking per frame
            },
            thermal=thermal,
        )
        self.cores = cores
        self.memcpy_bandwidth = memcpy_bandwidth


class Gpu(PhysicalDevice):
    """Discrete GPU with device memory, PCIe link, and on-die engines.

    Ops cover the roles virtual devices map onto it (§3.2): 3D render,
    display scan-out/compose, hardware video decode/encode (NVDEC/NVENC),
    and in-GPU YUV conversion (the ISP path).
    """

    def __init__(
        self,
        sim: Simulator,
        vram: MemoryPool,
        pcie: Bus,
        render_fixed: float,
        render_bandwidth: float,
        hw_decode_fixed: float,
        hw_decode_bandwidth: float,
        hw_encode_fixed: float,
        hw_encode_bandwidth: float,
        convert_bandwidth: float,
        name: str = "gpu",
    ):
        super().__init__(
            sim,
            name,
            DeviceKind.GPU,
            local_memory=vram,
            link=pcie,
            op_costs={
                "render": OpCost(fixed=render_fixed, bandwidth=render_bandwidth),
                "compose": OpCost(fixed=0.15, bandwidth=render_bandwidth * 4),
                "present": OpCost(fixed=0.05),
                "hw_decode": OpCost(fixed=hw_decode_fixed, bandwidth=hw_decode_bandwidth),
                "hw_encode": OpCost(fixed=hw_encode_fixed, bandwidth=hw_encode_bandwidth),
                "convert": OpCost(fixed=0.05, bandwidth=convert_bandwidth),
                "local_copy": OpCost(fixed=0.01, bandwidth=render_bandwidth * 8),
            },
        )


class Camera(PhysicalDevice):
    """Host camera (USB or integrated).

    ``capture_latency`` is the sensor+transport delay between the photons
    arriving and the frame being available in host memory — the component
    that makes the laptop's integrated camera ~10 ms faster end-to-end than
    the desktop's USB camera (§5.3).
    """

    def __init__(
        self,
        sim: Simulator,
        capture_latency: float,
        frame_interval: float,
        name: str = "camera",
    ):
        if frame_interval <= 0:
            raise HardwareError("camera frame interval must be positive")
        super().__init__(
            sim,
            name,
            DeviceKind.CAMERA,
            local_memory=None,
            link=None,
            op_costs={
                # "capture" models the sensor->host latency (timestamp math);
                # "deliver" is the cheap DMA that lands a frame in host memory
                # and is what occupies the device engine per frame.
                "capture": OpCost(fixed=capture_latency),
                "deliver": OpCost(fixed=0.4),
            },
        )
        self.capture_latency = capture_latency
        self.frame_interval = frame_interval


class Nic(PhysicalDevice):
    """Host network interface; bandwidth models the Gigabit LAN of §2.3."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float,
        name: str = "nic",
    ):
        if bandwidth <= 0:
            raise HardwareError("nic bandwidth must be positive")
        super().__init__(
            sim,
            name,
            DeviceKind.NIC,
            local_memory=None,
            link=None,
            op_costs={"recv": OpCost(fixed=latency, bandwidth=bandwidth),
                      "send": OpCost(fixed=latency, bandwidth=bandwidth)},
        )
        self.bandwidth = bandwidth
        self.latency = latency
