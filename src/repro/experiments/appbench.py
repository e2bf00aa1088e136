"""Application benchmarks: Figures 10, 11, 13 and 14 (§5.3).

Runs the 50 emerging apps on every emulator, on either evaluation machine,
and aggregates FPS per category (Figs 10/11), motion-to-photon latency
for the camera/AR/livestream categories (Figs 13/14) and the runnable-app
counts. §5.3's pairwise comparison over the apps *both* emulators can run
is :func:`repro.experiments.popular.pairwise_improvement`, which reads
only ``per_app``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import EMERGING_CATEGORIES, emerging_app_params
from repro.experiments.engine import RunResult, run_many, specs_for_apps
from repro.experiments.runner import DEFAULT_DURATION_MS
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec

EMULATORS = ("vSoC", "GAE", "QEMU-KVM", "LDPlayer", "Bluestacks", "Trinity")
#: Categories with motion-to-photon measurements (§5.3: no user input
#: during video playback, so latency is only measured on these three).
LATENCY_CATEGORIES = ("Camera", "AR", "Livestream")


@dataclass
class AppBenchResult:
    """One emulator's bar group in Figs 10/11 + 13/14."""

    emulator: str
    machine: str
    category_fps: Dict[str, float] = field(default_factory=dict)
    category_latency: Dict[str, float] = field(default_factory=dict)
    runnable: int = 0
    per_app: Dict[str, Optional[float]] = field(default_factory=dict)  # fps or None

    @property
    def mean_fps(self) -> float:
        values = list(self.category_fps.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_latency(self) -> Optional[float]:
        values = list(self.category_latency.values())
        return sum(values) / len(values) if values else None


def _collect_appbench(
    emulator_name: str,
    machine_spec: MachineSpec,
    results: Sequence[RunResult],
) -> AppBenchResult:
    """Aggregate one emulator's engine results into its Figs 10/11 bars."""
    bench = AppBenchResult(emulator=emulator_name, machine=machine_spec.name)
    by_category: Dict[str, List[RunResult]] = {c: [] for c in EMERGING_CATEGORIES}
    for run in results:
        by_category[run.result.category].append(run)
        bench.per_app[run.result.app] = run.result.fps if run.result.ran else None
        if run.result.ran:
            bench.runnable += 1
    for category, runs in by_category.items():
        fps_values = [r.result.fps for r in runs if r.result.ran]
        if fps_values:
            bench.category_fps[category] = sum(fps_values) / len(fps_values)
        if category in LATENCY_CATEGORIES:
            lat_values = [
                r.result.latency_avg for r in runs
                if r.result.ran and r.result.latency_avg is not None
            ]
            if lat_values:
                bench.category_latency[category] = sum(lat_values) / len(lat_values)
    return bench


def run_fig10(machine_spec: MachineSpec = HIGH_END_DESKTOP,
              duration_ms: float = DEFAULT_DURATION_MS,
              apps_per_category: int = 10,
              emulators: Sequence[str] = EMULATORS,
              seed: int = 0,
              jobs: Optional[int] = None,
              cache: bool = True) -> Dict[str, AppBenchResult]:
    """FPS bars per category per emulator (Fig 10 high-end / Fig 11 laptop).

    The whole (emulator × app) grid is one engine submission, so ``jobs``
    parallelism spans emulators, not just one emulator's apps.
    """
    params = emerging_app_params(seed=seed, per_category=apps_per_category)
    specs = []
    for name in emulators:
        specs.extend(
            specs_for_apps(params, name, machine_spec, duration_ms, seed=seed)
        )
    report = run_many(specs, jobs=jobs, cache=cache)
    results: Dict[str, AppBenchResult] = {}
    for slot, name in enumerate(emulators):
        chunk = report.results[slot * len(params):(slot + 1) * len(params)]
        results[name] = _collect_appbench(name, machine_spec, chunk)
    return results
