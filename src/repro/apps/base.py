"""App abstraction: install a workload onto an emulator, collect results.

An :class:`App` owns the guest-side processes of one workload (services,
buffer queues, frame sources). ``install`` spawns them; ``collect`` turns
the collectors into an :class:`AppResult` after the simulator has run.

Capability errors at install time (no camera, no encoder) mark the app as
*not runnable* on that emulator — the mechanism behind the §5.3 counts
("vSoC, GAE, ... can respectively run 48, 47, 42, 43, 44, and 20 of
them").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.emulators.base import Emulator
from repro.errors import CapabilityError
from repro.guest.vsync import VSyncSource
from repro.metrics.collectors import FpsCollector, LatencyCollector
from repro.sim import Simulator


@dataclass
class AppResult:
    """Outcome of one (app, emulator, machine) run."""

    app: str
    category: str
    emulator: str
    duration_ms: float
    ran: bool
    fps: float = 0.0
    presented: int = 0
    dropped: Dict[str, int] = field(default_factory=dict)
    latency_avg: Optional[float] = None
    latency_p95: Optional[float] = None
    fail_reason: Optional[str] = None


class App:
    """Base class: common collectors and the install/collect contract."""

    #: Category label used by the experiment harness (Table 1 types).
    category = "generic"
    #: Whether this workload measures motion-to-photon latency (§5.3:
    #: "motion-to-photon latency is only measured on AR, camera, and
    #: livestream apps").
    measures_latency = False

    def __init__(self, name: str, warmup_ms: float = 2_000.0):
        self.name = name
        self.warmup_ms = warmup_ms
        self.fps = FpsCollector()
        self.latency = LatencyCollector() if self.measures_latency else None
        self._installed = False

    # -- to be provided by subclasses ------------------------------------------
    def check_capabilities(self, emulator: Emulator) -> None:
        """Raise :class:`CapabilityError` when the emulator cannot run us."""

    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        """Create services/buffers and spawn this app's processes."""
        raise NotImplementedError

    #: Small CPU-only IPC regions each app allocates (§2.3: ~1% of
    #: accesses happen exclusively between app processes; ~half of all
    #: *allocations* are small — the sub-1-MiB mass of Figure 4).
    ipc_regions = 7

    # -- harness API --------------------------------------------------------
    def install(self, sim: Simulator, emulator: Emulator) -> bool:
        """Spawn the workload; returns False when the emulator can't run it."""
        try:
            self.check_capabilities(emulator)
        except CapabilityError as err:
            self._fail_reason = str(err)
            return False
        vsync = VSyncSource(sim)
        self.build(sim, emulator, vsync)
        if self.ipc_regions:
            self._spawn_ipc_traffic(sim, emulator)
        self._installed = True
        return True

    def _spawn_ipc_traffic(self, sim: Simulator, emulator: Emulator) -> None:
        """Background CPU-only shared-memory use (binder parcels, ashmem
        metadata, glyph caches): small regions, occasional R/W cycles."""
        import random

        from repro.guest.hal import SharedMemoryHal
        from repro.units import KIB

        rng = random.Random(f"{self.name}:ipc")
        hal = SharedMemoryHal(emulator)
        handles = [
            hal.alloc(rng.choice((16, 64, 128, 256, 512)) * KIB)
            for _ in range(self.ipc_regions)
        ]

        def churn():
            from repro.sim import Timeout

            while True:
                yield Timeout(rng.uniform(30.0, 90.0))
                handle = rng.choice(handles)
                yield from hal.write_cycle(handle)
                yield from hal.read_cycle(handle)

        sim.spawn(churn(), name=f"{self.name}:ipc")

    def collect(self, emulator_name: str, duration_ms: float) -> AppResult:
        """Summarize the run (or the install failure)."""
        if not self._installed:
            return AppResult(
                app=self.name,
                category=self.category,
                emulator=emulator_name,
                duration_ms=duration_ms,
                ran=False,
                fail_reason=getattr(self, "_fail_reason", "install failed"),
            )
        latency_avg = latency_p95 = None
        if self.latency is not None and self.latency.samples:
            # Exclude warmup samples, matching the FPS accounting.
            steady = [
                s
                for s, t in zip(self.latency.samples, self.fps.present_times)
                if t >= self.warmup_ms
            ]
            source = steady if steady else self.latency.samples
            latency_avg = sum(source) / len(source)
            latency_p95 = sorted(source)[int(0.95 * (len(source) - 1))]
        return AppResult(
            app=self.name,
            category=self.category,
            emulator=emulator_name,
            duration_ms=duration_ms,
            ran=True,
            fps=self.fps.fps(duration_ms, warmup_ms=self.warmup_ms),
            presented=self.fps.presented,
            dropped=dict(self.fps.dropped),
            latency_avg=latency_avg,
            latency_p95=latency_p95,
        )
