"""Performance breakdown (§5.4): Figures 12 and 16, plus §5.5's ablations.

* **Fig 12** — FPS per emerging category for vSoC, vSoC without the
  prefetch engine (write-invalidate coherence), and vSoC without virtual
  fences (atomic ordering). Paper: −30% average / −66% video for the
  prefetch ablation; −11% for the fence ablation.
* **Fig 16** — CDF of SVM access latency with the prefetch engine off
  while playing UHD video: the write-invalidate protocol blocks the render
  thread (paper: up to 40.54 ms), frames miss presentation deadlines and
  are discarded.
* **§5.5** — the same two ablations over the top-25 popular apps: the
  fraction of apps losing FPS and the average loss.

All sweeps route through :mod:`repro.experiments.engine`; the ablated
emulator constructors are expressed as dotted-path factories plus kwargs so
each variant hashes to its own stable cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.apps.catalog import (
    EMERGING_CATEGORIES,
    emerging_app_params,
    popular_app_params,
)
from repro.experiments.engine import run_many, run_one, specs_for_apps
from repro.experiments.runner import DEFAULT_DURATION_MS
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec
from repro.metrics.stats import cdf_points

#: The three Fig 12 variants, in bar order: name → (emulator factory dotted
#: path or None for the stock registry entry, factory kwargs).
VARIANTS: Dict[str, Tuple[Optional[str], Mapping[str, Any]]] = {
    "vSoC": (None, {}),
    "no-prefetch": ("repro.emulators:make_vsoc", {"prefetch": False}),
    "no-fence": ("repro.emulators:make_vsoc", {"fences": False}),
}


@dataclass
class BreakdownResult:
    """Fig 12: category FPS per variant."""

    machine: str
    category_fps: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def variant_mean(self, variant: str) -> float:
        values = [fps[variant] for fps in self.category_fps.values() if variant in fps]
        return sum(values) / len(values) if values else 0.0

    def drop_percent(self, variant: str) -> float:
        """Average FPS drop of a variant relative to full vSoC."""
        full = self.variant_mean("vSoC")
        if full <= 0:
            return 0.0
        return 100.0 * (1.0 - self.variant_mean(variant) / full)


def run_fig12(
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    apps_per_category: int = 10,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> BreakdownResult:
    """The §5.4 ablation sweep over the emerging apps.

    The whole (variant × app) grid is one engine submission.
    """
    result = BreakdownResult(machine=machine_spec.name)
    for category in EMERGING_CATEGORIES:
        result.category_fps[category] = {}
    params = emerging_app_params(seed=seed, per_category=apps_per_category)
    specs = []
    for factory, kwargs in VARIANTS.values():
        specs.extend(specs_for_apps(
            params, "vSoC", machine_spec, duration_ms, seed=seed,
            emulator_factory=factory, emulator_kwargs=kwargs,
        ))
    report = run_many(specs, jobs=jobs, cache=cache)
    for slot, variant in enumerate(VARIANTS):
        sums: Dict[str, List[float]] = {c: [] for c in EMERGING_CATEGORIES}
        for run in report.results[slot * len(params):(slot + 1) * len(params)]:
            if run.result.ran:
                sums[run.result.category].append(run.result.fps)
        for category, values in sums.items():
            if values:
                result.category_fps[category][variant] = sum(values) / len(values)
    return result


@dataclass
class AccessLatencyResult:
    """Fig 16: SVM access latency distribution with prefetch off."""

    samples: List[float]

    def cdf(self) -> List[Tuple[float, float]]:
        return cdf_points(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0


def run_fig16(
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    prefetch: bool = False,
    cache: bool = True,
) -> AccessLatencyResult:
    """Access-latency CDF on UHD video with the prefetch engine toggled.

    ``prefetch=False`` is the paper's Fig 16 configuration (write-
    invalidate); pass ``True`` to see the healthy baseline for contrast.
    """
    from repro.experiments.engine import RunSpec

    spec = RunSpec(
        app_factory="repro.apps.video:UhdVideoApp",
        app_kwargs={},
        emulator="vSoC",
        machine_spec=machine_spec,
        duration_ms=duration_ms,
        seed=seed,
        emulator_factory="repro.emulators:make_vsoc",
        emulator_kwargs={"prefetch": prefetch},
    )
    run = run_one(spec, cache=cache)
    samples = list(run.stats.access_latency_samples) if run.stats is not None else []
    return AccessLatencyResult(samples=samples)


@dataclass
class PopularBreakdownResult:
    """§5.5's popular-app ablation numbers."""

    variant: str
    per_app_fps: Dict[str, float]
    baseline_fps: Dict[str, float]

    @property
    def apps_with_drops(self) -> int:
        """Apps losing more than half an FPS versus full vSoC."""
        return sum(
            1
            for name, fps in self.per_app_fps.items()
            if self.baseline_fps.get(name, 0.0) - fps > 0.5
        )

    @property
    def average_drop_percent(self) -> float:
        drops = []
        for name, fps in self.per_app_fps.items():
            base = self.baseline_fps.get(name)
            if base:
                drops.append(100.0 * (1.0 - fps / base))
        return sum(drops) / len(drops) if drops else 0.0


def run_popular_breakdown(
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> Dict[str, PopularBreakdownResult]:
    """§5.5: both ablations over the top-25 popular apps."""
    params = popular_app_params(seed=seed)
    specs = []
    for factory, kwargs in VARIANTS.values():
        specs.extend(specs_for_apps(
            params, "vSoC", machine_spec, duration_ms, seed=seed,
            emulator_factory=factory, emulator_kwargs=kwargs,
        ))
    report = run_many(specs, jobs=jobs, cache=cache)
    fps_by_variant: Dict[str, Dict[str, float]] = {}
    for slot, variant in enumerate(VARIANTS):
        fps: Dict[str, float] = {}
        for run in report.results[slot * len(params):(slot + 1) * len(params)]:
            if run.result.ran:
                fps[run.result.app] = run.result.fps
        fps_by_variant[variant] = fps
    baseline = fps_by_variant["vSoC"]
    return {
        variant: PopularBreakdownResult(variant, fps, baseline)
        for variant, fps in fps_by_variant.items()
        if variant != "vSoC"
    }
