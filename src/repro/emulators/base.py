"""The emulator assembly: guest drivers, host executors, and the SVM stack.

An :class:`Emulator` wires the paper's moving parts together:

* one **guest driver + host command queue + host executor** per virtual
  device (codec, GPU, display, camera, ISP, modem) — the asynchronous
  threading paradigm of §3.4;
* an **SVM manager** with the emulator's coherence protocol over the
  machine's copy topology;
* the **virtual fence table** (FENCES ordering), whose fences each host
  executor signals once the operations queued before them retire, or
  blocking **atomic** dispatch (the baseline and the §5.4 ablation);
* per-device **MIMD flow control** pacing guest dispatch.

An :class:`EmulatorConfig` holds only what differs between emulators: the
coherence protocol class, the command ordering, the virtual→physical
device mapping, and a few fitted efficiency figures. What every emulator
shares is a module constant here (:data:`DISPATCH_COST_MS`,
:data:`COMMAND_QUEUE_DEPTH`, :data:`ATOMIC_RENDER_PENALTY_MS`,
:data:`GPU_CONTEXT_SWITCH_MS`).

Apps talk to the emulator through *stages*: one stage = (optional SVM
accesses) + one device op, e.g. "codec decodes a frame into region 7" or
"GPU renders reading region 7, writing framebuffer region 9". Stages return
a :class:`StageResult` whose ``done`` event fires at host retirement, which
is how apps observe true frame-presentation times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Type

from repro.core.coherence import (
    CoherenceProtocol,
    CopyPlanner,
    GuestMemoryWriteInvalidate,
    UnifiedPrefetchProtocol,
    UnifiedWriteInvalidate,
)
from repro.core.degradation import DegradationController
from repro.core.fence import VirtualFenceTable
from repro.core.flowcontrol import MimdFlowControl
from repro.core.manager import SvmManager
from repro.core.ordering import (
    Command,
    ExecCommand,
    OrderingMode,
    SignalFenceCommand,
    WaitFenceCommand,
)
from repro.core.prefetch import PrefetchEngine
from repro.core.region import (
    GUEST_LOCATION,
    HOST_LOCATION,
    AccessUsage,
    location_of,
)
from repro.core.twin import TwinHypergraphs
from repro.errors import CapabilityError, ConfigurationError
from repro.hw.bus import Bus
from repro.hw.machine import HostMachine
from repro.hw.device import DeviceKind, PhysicalDevice
from repro.obs.span import NO_FLOW, NULL_TRACER, Tracer
from repro.sim import FifoQueue, SimEvent, Simulator, Timeout
from repro.sim.tracing import TraceLog
from repro.units import gb_per_s

#: The common set of paravirtualized virtual SoC devices (§3.1).
VDEV_NAMES = ("gpu", "display", "codec", "camera", "isp", "modem", "cpu")

#: Guest-driver cost of one virtio kick, in ms.
DISPATCH_COST_MS = 0.03
#: Capacity of each virtual device's host command queue.
COMMAND_QUEUE_DEPTH = 64
#: Atomic ordering serializes the guest-host round trip of every
#: command inside a render pass (draw calls, state changes) instead of
#: letting them stream past fences — Figure 9b's head-of-queue
#: blocking, amortized here as a per-render-stage penalty (ms).
ATOMIC_RENDER_PENALTY_MS = 1.5
#: §3.4: "the mechanism is also applied in GPU context switches to
#: avoid GPU driver stalls". Switching the physical GPU between
#: virtual-device contexts (codec engine ↔ render ↔ compose) costs a
#: stall under atomic ordering; with fences the switch is deferred and
#: pipelined (costs nothing extra). In ms.
GPU_CONTEXT_SWITCH_MS = 0.45


@dataclass(frozen=True)
class EmulatorConfig:
    """Everything that differentiates one emulator from another.

    The efficiency scales are the only per-emulator fitted constants; each
    concrete emulator module documents where its values come from.
    """

    name: str
    # memory architecture: the coherence protocol class. Guest memory
    # (§2.2) for the baselines; vSoC's unified framework runs prefetch
    # (§3.3), write-invalidate (the §5.4 ablation) or broadcast (§7).
    coherence: Type[CoherenceProtocol] = GuestMemoryWriteInvalidate
    ordering: OrderingMode = OrderingMode.ATOMIC
    # device capabilities / virtual→physical mapping policy
    hw_codec: bool = True  # codec maps onto the GPU's decode/encode engines
    can_encode: bool = True  # False: no video encoder at all (Trinity)
    has_camera: bool = True
    isp_on_gpu: bool = True
    # efficiency factors (>1 = slower than the reference implementation)
    render_scale: float = 1.0
    decode_scale: float = 1.0
    # SVM interface costs
    extra_access_overhead_ms: float = 0.0
    coherence_bandwidth_scale: float = 1.0  # scales the boundary bus
    # periodic whole-emulator stalls (closed-source emulators, §5.3)
    stall_period_ms: float = 0.0  # 0 disables
    stall_duration_ms: float = 0.0


class StageResult:
    """What a guest-side stage returns to the app."""

    __slots__ = ("access_latency", "dispatch_latency", "done", "compensation")

    def __init__(
        self,
        access_latency: float,  # total begin_access blocking (ms)
        dispatch_latency: float,  # driver-side time, incl. compensation (ms)
        done: SimEvent,  # fires at host retirement of the stage's op
        compensation: float = 0.0,
    ):
        self.access_latency = access_latency
        self.dispatch_latency = dispatch_latency
        self.done = done
        self.compensation = compensation


class _VirtualDevice:
    """One virtual device: its command queue and physical binding."""

    __slots__ = ("name", "physical", "queue", "flow", "executor", "outstanding", "crashes")

    def __init__(
        self,
        name: str,
        physical: PhysicalDevice,
        queue: FifoQueue,
        flow: MimdFlowControl,
    ):
        self.name = name
        self.physical = physical
        self.queue = queue
        self.flow = flow
        self.executor = None
        # Every dispatched-but-not-retired ExecCommand, in dispatch order
        # (dict-as-ordered-set). Crash recovery aborts exactly this set —
        # commands may sit in the queue, in a fired-but-undelivered get
        # event, or on the executor's bench; this ledger sees them all.
        self.outstanding: Dict[ExecCommand, None] = {}
        self.crashes = 0


class Emulator:
    """A mobile emulator instance bound to one simulator and host machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: HostMachine,
        config: EmulatorConfig,
        trace: Optional[TraceLog] = None,
        rng: Optional[random.Random] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.machine = machine
        self.config = config
        self.trace = trace if trace is not None else TraceLog()
        # ``start``, ``flow`` and ``bytes`` are the op span's
        # (repro.obs.span.ROW_SPANS).
        self._op_retired = self.trace.channel(
            "host.op_retired", "vdev", "op", "queue_delay", "start", "flow", "bytes"
        )
        self._compensation = self.trace.channel(
            "svm.compensation", "vdev", "compensation"
        )
        self.rng = rng if rng is not None else random.Random(0)
        self.tracer = tracer

        # The boundary bus is per-emulator: its effective bandwidth differs
        # between implementations (Table 2 coherence-cost spread).
        spec = machine.spec
        self._boundary = Bus(
            sim,
            f"{config.name}:boundary",
            gb_per_s(spec.boundary_copy_gbps * config.coherence_bandwidth_scale),
            latency=spec.vm_exit_cost_ms,
        )
        self.planner = CopyPlanner(sim, machine, boundary=self._boundary, trace=self.trace)

        locations = set(self.planner.known_locations()) | {GUEST_LOCATION}
        self.twin = TwinHypergraphs(VDEV_NAMES, locations)

        self.engine: Optional[PrefetchEngine] = None
        self.degradation: Optional[DegradationController] = None
        self.protocol = self._build_protocol()

        location_pools = {HOST_LOCATION: machine.host_memory, GUEST_LOCATION: machine.guest_memory}
        for device in machine.devices.values():
            if device.local_memory is not None:
                location_pools[device.name] = device.local_memory
        self.manager = SvmManager(
            sim,
            self.twin,
            self.protocol,
            location_pools,
            self.trace,
            page_map_cost=spec.page_map_cost_ms,
            extra_access_overhead=config.extra_access_overhead_ms,
            engine=self.engine,
            degradation=self.degradation,
        )

        from repro.guest.transport import VirtioTransport  # local: avoids cycle

        self.transport = VirtioTransport(
            sim, kick_cost=DISPATCH_COST_MS, tracer=tracer
        )
        self.fence_table = VirtualFenceTable(sim)
        # Fixed per emulator. §5.4: the write-invalidate ablation needs
        # synchronous guest-host execution for SVM operations, "thus
        # virtual command fences cannot be used" — stages that touch SVM
        # regions become atomic even when the ordering mode is FENCES.
        self._fenced = config.ordering is OrderingMode.FENCES
        self.atomic_svm_stages = config.coherence is UnifiedWriteInvalidate
        # Under fences without atomic SVM stages a GPU hand-over rides the
        # asynchronous command stream (§3.4) and never stalls, so
        # executors then never price one.
        self._switch_can_stall = not self._fenced or self.atomic_svm_stages
        self._vdevs: Dict[str, _VirtualDevice] = {}
        self._vdev_location_overrides: Dict[str, str] = {}
        self._vdev_locations: Dict[str, str] = {}
        for vdev_name in VDEV_NAMES:
            physical = self._resolve_physical(vdev_name)
            if physical is None:
                continue
            vdev = _VirtualDevice(
                vdev_name,
                physical,
                FifoQueue(sim, capacity=COMMAND_QUEUE_DEPTH, name=f"q:{vdev_name}"),
                MimdFlowControl(sim),
            )
            vdev.executor = sim.spawn(self._executor(vdev), name=f"exec:{vdev_name}")
            self._vdevs[vdev_name] = vdev

        self._stall_gate: Optional[SimEvent] = None
        self._last_codec_stage = float("-inf")
        self._gpu_context: Dict[str, str] = {}
        if config.stall_period_ms > 0:
            sim.spawn(self._stall_injector(), name=f"{config.name}:stalls")

    def metered_buses(self) -> Tuple[Bus, ...]:
        """The links an observed run reports on, one set of bus metrics per link."""
        return (self._boundary, self.machine.memctl, self.machine.pcie)

    # -- construction helpers -----------------------------------------------
    def _build_protocol(self) -> CoherenceProtocol:
        coherence = self.config.coherence
        if coherence is UnifiedPrefetchProtocol:
            self.degradation = DegradationController(self.sim, trace=self.trace)
            self.engine = PrefetchEngine(
                self.sim, self.twin, self.planner, self.vdev_location, self.trace,
                degradation=self.degradation,
            )
            return UnifiedPrefetchProtocol(
                self.sim, self.planner, self.engine, self.trace,
                degradation=self.degradation,
            )
        return coherence(self.sim, self.planner, self.trace)

    def _resolve_physical(self, vdev: str) -> Optional[PhysicalDevice]:
        """The dynamic virtual→physical mapping of §3.2."""
        machine = self.machine
        if vdev in ("gpu", "display"):
            return machine.gpu  # displays are managed by the GPU on PCs
        if vdev == "codec":
            return machine.gpu if self.config.hw_codec else machine.cpu
        if vdev == "isp":
            return machine.gpu if self.config.isp_on_gpu else machine.cpu
        if vdev == "camera":
            return machine.camera if self.config.has_camera else None
        if vdev == "modem":
            return machine.nic
        if vdev == "cpu":
            return machine.cpu
        return None

    # -- porting new virtual devices (§6) ------------------------------------
    def register_vdev(self, name: str, physical: PhysicalDevice,
                      data_location: Optional[str] = None) -> None:
        """Port a new virtual device into the SVM framework (§6).

        Following the paper's porting recipe, the new device gets: a handle
        representation (the shared SVM manager), a node in both hypergraph
        layers (so its flows are predicted and prefetched), fence/ordering
        support (its own command queue + executor), and copy paths (via its
        physical device's location). ``data_location`` overrides where its
        SVM data lives (e.g. ``"host"`` for devices with host-resident
        output buffers, like the codec).
        """
        if name in self._vdevs:
            raise ConfigurationError(f"virtual device {name!r} already exists")
        self.twin.virtual.add_node(name)
        location = data_location if data_location is not None else location_of(physical)
        self.twin.physical.add_node(location)
        self._vdev_location_overrides[name] = location
        vdev = _VirtualDevice(
            name,
            physical,
            FifoQueue(self.sim, capacity=COMMAND_QUEUE_DEPTH, name=f"q:{name}"),
            MimdFlowControl(self.sim),
        )
        vdev.executor = self.sim.spawn(self._executor(vdev), name=f"exec:{name}")
        self._vdevs[name] = vdev

    # -- crash recovery hooks (repro.recovery) --------------------------------
    def respawn_executor(self, vdev_name: str) -> None:
        """Re-admit a crashed virtual device with a fresh host executor.

        The old executor process must already be dead (killed by the
        recovery coordinator). Any GPU context the crashed device held is
        forgotten so the next tenant pays an honest rebind.
        """
        vdev = self._vdev(vdev_name)
        if vdev.executor is not None and vdev.executor.alive:
            raise ConfigurationError(
                f"executor for {vdev_name!r} is still alive; kill it first"
            )
        physical = vdev.physical
        if self._gpu_context.get(physical.name) == vdev_name:
            del self._gpu_context[physical.name]
        vdev.executor = self.sim.spawn(self._executor(vdev), name=f"exec:{vdev_name}")

    # -- introspection -------------------------------------------------------
    @property
    def name(self) -> str:
        """Report name of this emulator configuration."""
        return self.config.name

    def has_vdev(self, vdev: str) -> bool:
        """True when this emulator implements the named virtual device."""
        return vdev in self._vdevs

    def vdev_names(self) -> List[str]:
        """Names of the virtual devices this emulator implements."""
        return list(self._vdevs)

    def physical_for(self, vdev: str) -> PhysicalDevice:
        try:
            return self._vdevs[vdev].physical
        except KeyError:
            raise CapabilityError(
                f"emulator {self.config.name!r} has no virtual device {vdev!r}"
            ) from None

    def vdev_location(self, vdev: str) -> str:
        """Where this virtual device's SVM data lives.

        The codec is special: even with hardware (NVDEC-class) decode, the
        libavcodec output buffers land in **host memory** — in-GPU
        rendering needs the OpenGL interop path, which only covers some
        formats (§4). This is exactly why video pipelines have a per-frame
        host→GPU coherence maintenance (the 2.38 ms of Table 2) instead of
        being free.

        The binding is static, so each answer is memoized.
        """
        location = self._vdev_locations.get(vdev)
        if location is not None:
            return location
        location = self._vdev_location_overrides.get(vdev)
        if location is None:
            if vdev == "codec":
                location = HOST_LOCATION
            else:
                location = location_of(self.physical_for(vdev))
        self._vdev_locations[vdev] = location
        return location

    def supports_encoding(self) -> bool:
        """Livestream/camera recording capability (Trinity lacks it)."""
        if not self.config.can_encode:
            return False
        return self.config.hw_codec or self.physical_for("codec").supports("sw_encode")

    def track_groups(self) -> Dict[str, str]:
        """Trace-track → physical-device grouping for the Perfetto exporter.

        Guest-side virtual-device tracks and their host executors group
        under the physical device that serves them ("pid" in the Chrome
        trace); transport/coherence/prefetch machinery stays on the host.
        """
        groups: Dict[str, str] = {}
        for name, vdev in self._vdevs.items():
            groups[name] = vdev.physical.name
            groups[f"{name}/exec"] = vdev.physical.name
        return groups

    # -- SVM lifecycle (guest-facing) -----------------------------------------
    def svm_alloc(self, size: int) -> int:
        """Allocate a shared-memory region; returns its 64-bit handle."""
        return self.manager.alloc(size)

    def svm_free(self, region_id: int) -> None:
        """Free a shared-memory region by handle."""
        self.manager.free(region_id)

    # -- stages (guest-facing) ---------------------------------------------------
    def stage(
        self,
        vdev: str,
        op: str,
        op_bytes: int,
        reads: Sequence[int] = (),
        writes: Sequence[int] = (),
        dirty_bytes: Optional[int] = None,
        flow: int = NO_FLOW,
    ) -> Generator[Any, Any, StageResult]:
        """Process: run one pipeline stage on a virtual device.

        Opens SVM access brackets (coherence happens here per the
        protocol), dispatches the device op with ordering semantics, applies
        prefetch compensation, and closes the brackets. Returns a
        :class:`StageResult`; ``yield result.done`` to join host retirement.

        ``flow`` is the causal-trace flow id of the frame this stage
        advances; it is stamped onto the touched regions so downstream
        coherence/prefetch spans join the frame's flow.
        """
        device = self._vdevs.get(vdev) or self._vdev(vdev)
        location = self._vdev_locations.get(vdev) or self.vdev_location(vdev)
        sim = self.sim
        manager = self.manager

        read_regions = [manager.get(r) for r in reads]
        write_regions = [manager.get(r) for r in writes]
        if flow != NO_FLOW:
            for region in read_regions:
                region.flow = flow
            for region in write_regions:
                region.flow = flow
        tracer = self.tracer
        if tracer.enabled:
            stage_span = tracer.begin(
                f"stage:{op}", vdev, cat="stage", flow=flow,
                op=op, reads=len(read_regions), writes=len(write_regions),
            )

        access_latency = 0.0
        for region in read_regions:
            usage = AccessUsage.READ_WRITE if region in write_regions else AccessUsage.READ
            access_latency += yield from manager.begin_access(
                vdev, region.region_id, usage, location,
                nbytes=dirty_bytes if usage.writes else None,
            )
        for region in write_regions:
            if region in read_regions:
                continue  # already opened RW above
            access_latency += yield from manager.begin_access(
                vdev, region.region_id, AccessUsage.WRITE, location, nbytes=dirty_bytes
            )

        if vdev == "codec":
            self._last_codec_stage = sim.now
        if (
            self._stall_gate is not None
            and not self._stall_gate.fired
            and sim.now - self._last_codec_stage < 1_000.0
        ):
            # Decoder-overload freeze (§5.3: "videos often freeze for
            # seconds on Bluestacks and LDPlayer"; lower resolutions play
            # smoothly — the stall follows decode pressure, so apps that
            # never touch the codec are unaffected).
            yield self._stall_gate

        yield device.flow.dispatch()
        dispatch_start = sim.now

        fenced = self._fenced
        commands: List[Command] = []
        if fenced:
            for region in read_regions:
                if region.write_fence is not None and not region.write_fence.signaled:
                    commands.append(WaitFenceCommand(region.write_fence, flow))
        cmd = ExecCommand(
            sim, op, op_bytes, read_regions, write_regions, self._op_scale(op),
            dirty_bytes or 0, dispatch_start, flow,
        )
        commands.append(cmd)
        device.outstanding[cmd] = None
        if fenced and write_regions:
            fence = self.fence_table.allocate()
            fence.owner = vdev
            for region in write_regions:
                region.write_fence = fence
                region.pending_writer_location = location
            commands.append(SignalFenceCommand(fence, flow))

        yield from self.transport.kick_reliable(len(commands), flow)
        for command in commands:
            yield device.queue.put(command)

        compensation = 0.0
        if not fenced or (self.atomic_svm_stages and (read_regions or write_regions)):
            yield cmd.done
            if op == "render":
                yield Timeout(ATOMIC_RENDER_PENALTY_MS)
        elif write_regions and self.engine is not None:  # noqa: SIM114
            # Adaptive synchronism (§3.3): block only when predicted slack
            # cannot hide the predicted prefetch.
            engine = self.engine
            for region in write_regions:
                predicted = engine.predicted_compensation(region, vdev, location)
                if predicted > compensation:
                    compensation = predicted
            for region in write_regions:
                region.applied_compensation = compensation
            if compensation > 0:
                yield cmd.done
                yield Timeout(compensation)
                self._compensation(sim.now, vdev, compensation)

        for region in read_regions:
            if region.is_open_by(vdev):
                manager.end_access(vdev, region.region_id)
        for region in write_regions:
            if region.is_open_by(vdev):
                manager.end_access(vdev, region.region_id)

        if tracer.enabled:
            tracer.end(
                stage_span,
                access_latency=access_latency,
                compensation=compensation,
            )
        return StageResult(access_latency, sim.now - dispatch_start, cmd.done, compensation)

    # -- convenience stage wrappers used by app pipelines ------------------------
    def decode_op(self) -> str:
        """The decode op this emulator's codec path uses (hw vs software)."""
        return "hw_decode" if self.config.hw_codec else "sw_decode"

    def encode_op(self) -> str:
        if not self.supports_encoding():
            raise CapabilityError(f"{self.config.name} cannot encode video")
        return "hw_encode" if self.config.hw_codec else "sw_encode"

    def convert_op(self) -> str:
        """The colorspace-conversion op (in-GPU YUVConverter vs libswscale)."""
        return "convert" if self.config.isp_on_gpu else "sw_convert"

    # -- host executor ----------------------------------------------------------
    def _executor(self, vdev: _VirtualDevice):
        """Host-side thread of one virtual device: drain its command queue."""
        sim = self.sim
        manager = self.manager
        tracer = self.tracer
        observed = tracer.enabled
        # Fixed per virtual device, so read once rather than per command.
        name = vdev.name
        location = self.vdev_location(name)
        exec_track = f"{name}/exec"
        op_retired = self._op_retired
        get = vdev.queue.get
        run_op = vdev.physical.run_op
        switches = self._switch_can_stall and vdev.physical.kind is DeviceKind.GPU
        while True:
            command = yield get()
            kind = type(command)
            if kind is ExecCommand and command.done.fired:
                # Aborted by crash recovery while still travelling through
                # the (since reset) queue — its completion was already
                # accounted; executing it would double-fire ``done``.
                continue
            if kind is WaitFenceCommand:
                if observed:
                    span = tracer.begin(
                        "fence.wait", exec_track, cat="fence", flow=command.flow
                    )
                yield command.fence.wait()
                if observed:
                    tracer.end(span)
            elif kind is SignalFenceCommand:
                command.fence.signal()
                if observed:
                    tracer.instant(
                        "fence.signal", exec_track, cat="fence", flow=command.flow
                    )
            elif kind is ExecCommand:
                start = sim.now
                for region in command.reads:
                    yield from manager.host_before_read(region.region_id, name, location)
                if switches:
                    stall = self._context_switch(vdev)
                    if stall > 0:
                        yield Timeout(stall)
                yield from run_op(command.op, command.nbytes, command.scale)
                for region in command.writes:
                    yield from manager.host_write_retired(
                        region.region_id, name, location, command.dirty_window(region)
                    )
                now = sim.now
                command.done.fire(now)
                vdev.flow.complete()
                vdev.outstanding.pop(command, None)
                op_retired(
                    now, name, command.op, now - command.dispatched_at,
                    start, command.flow, command.nbytes,
                )
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown command {command!r}")

    def _context_switch(self, vdev: _VirtualDevice) -> float:
        """GPU context-switch stall (§3.4) in ms.

        The physical GPU serves several virtual devices (codec engine,
        render, compose); each hand-over re-binds its context. With the
        fence mechanism the switch rides the asynchronous command stream,
        so only a GPU executor of an emulator whose switches can stall
        calls this; under atomic ordering the driver stalls for it.
        """
        physical = vdev.physical
        previous = self._gpu_context.get(physical.name)
        self._gpu_context[physical.name] = vdev.name
        if previous is None or previous == vdev.name:
            return 0.0
        return GPU_CONTEXT_SWITCH_MS

    def _op_scale(self, op: str) -> float:
        config = self.config
        if op in ("render", "compose", "present"):
            return config.render_scale
        if op in ("hw_decode", "sw_decode"):
            return config.decode_scale
        return 1.0

    def _vdev(self, name: str) -> _VirtualDevice:
        try:
            return self._vdevs[name]
        except KeyError:
            raise CapabilityError(
                f"emulator {self.config.name!r} has no virtual device {name!r}"
            ) from None

    # -- stall injection (closed-source emulator quirk) ---------------------------
    def _stall_injector(self):
        """Periodically freeze dispatch for stall_duration_ms (±30% jitter)."""
        config = self.config
        while True:
            period = config.stall_period_ms * self.rng.uniform(0.7, 1.3)
            yield Timeout(period)
            gate = SimEvent(self.sim, name=f"{config.name}:stall")
            self._stall_gate = gate
            yield Timeout(config.stall_duration_ms * self.rng.uniform(0.7, 1.3))
            self._stall_gate = None
            gate.fire(None)
