"""Instance density: how many emulators fit on one host?

Not a paper figure, but the deployment question behind it — vSoC ships in
an IDE, and device-farm / cloud-rendering deployments (§7's DroidCloud and
CARE) care about instances-per-host. Because every emulator instance in
this library binds to the *same* :class:`~repro.hw.machine.HostMachine`,
running several at once contends for the real shared resources: the GPU's
engines, the PCIe link, and the boundary path. The unified framework's
lower bus traffic translates directly into higher density.

The unit of work here is *several* emulator instances sharing one
simulator, so it cannot be a :class:`~repro.experiments.engine.RunSpec`;
:func:`density_point` is the pure module-level function the engine runs as
a :class:`~repro.experiments.engine.PointSpec` instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.video import UhdVideoApp
from repro.emulators import EMULATOR_FACTORIES
from repro.experiments.engine import PointSpec, run_many
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec, build_machine
from repro.sim import Simulator


@dataclass
class DensityResult:
    """Mean per-instance FPS at each instance count."""

    emulator: str
    machine: str
    fps_by_instances: Dict[int, float] = field(default_factory=dict)


def density_point(
    emulator_name: str,
    count: int,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = 10_000.0,
    seed: int = 0,
) -> float:
    """Mean per-instance FPS of ``count`` video players on one shared host."""
    sim = Simulator()
    machine = build_machine(sim, machine_spec)
    apps: List[UhdVideoApp] = []
    for index in range(count):
        emulator = EMULATOR_FACTORIES[emulator_name](
            sim, machine, rng=random.Random(seed + index)
        )
        app = UhdVideoApp(name=f"video-{index}")
        if app.install(sim, emulator):
            apps.append(app)
    sim.run(until=duration_ms)
    fps_values = [
        app.fps.fps(duration_ms, warmup_ms=app.warmup_ms) for app in apps
    ]
    return sum(fps_values) / len(fps_values)


def _density_specs(emulator_name, instance_counts, machine_spec, duration_ms,
                   seed) -> List[PointSpec]:
    return [
        PointSpec(
            fn="repro.experiments.density:density_point",
            kwargs=dict(
                emulator_name=emulator_name,
                count=count,
                machine_spec=machine_spec,
                duration_ms=duration_ms,
                seed=seed,
            ),
        )
        for count in instance_counts
    ]


def run_density_comparison(
    emulators=("vSoC", "GAE"),
    instance_counts=(1, 2, 4),
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = 10_000.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> Dict[str, DensityResult]:
    """Density curves for several emulators on the same host spec.

    The whole (emulator × count) grid is one engine submission.
    """
    specs = []
    for name in emulators:
        specs.extend(_density_specs(name, instance_counts, machine_spec,
                                    duration_ms, seed))
    report = run_many(specs, jobs=jobs, cache=cache)
    results: Dict[str, DensityResult] = {}
    for slot, name in enumerate(emulators):
        result = DensityResult(emulator=name, machine=machine_spec.name)
        chunk = report.results[
            slot * len(instance_counts):(slot + 1) * len(instance_counts)
        ]
        for count, fps in zip(instance_counts, chunk):
            result.fps_by_instances[count] = fps
        results[name] = result
    return results
