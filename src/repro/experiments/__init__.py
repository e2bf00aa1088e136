"""Experiment harness: one entry point per table/figure of the paper.

See DESIGN.md's per-experiment index. Each experiment module exposes
``run_*`` functions returning plain result structures; the
``__main__`` CLI prints the paper-shaped reports, and
:mod:`repro.experiments.export` serializes any result to JSON.
"""

from repro.experiments.appbench import run_appbench, run_fig10, run_fig11
from repro.experiments.engine import (
    EngineReport,
    PointSpec,
    RunCache,
    RunResult,
    RunSpec,
    cache_key,
    run_many,
    run_one,
    source_fingerprint,
    specs_for_apps,
)
from repro.experiments.breakdown import (
    run_fig12,
    run_fig16,
    run_popular_breakdown,
)
from repro.experiments.density import run_density, run_density_comparison
from repro.experiments.measurement import run_fig4, run_fig5, run_fig6, run_measurement
from repro.experiments.microbench import run_svm_microbench, run_table2
from repro.experiments.popular import run_fig15
from repro.experiments.runner import (
    AppRun,
    mean_fps,
    mean_latency,
    run_app,
    run_category,
    run_emulator_suite,
)
from repro.experiments.sweeps import (
    boundary_crossover,
    sweep_boundary_bandwidth,
    sweep_pcie_bandwidth,
)
from repro.experiments.validate import validate

__all__ = [
    "AppRun",
    "EngineReport",
    "PointSpec",
    "RunCache",
    "RunResult",
    "RunSpec",
    "cache_key",
    "run_many",
    "run_one",
    "source_fingerprint",
    "specs_for_apps",
    "run_app",
    "run_category",
    "run_emulator_suite",
    "mean_fps",
    "mean_latency",
    "run_table2",
    "run_svm_microbench",
    "run_measurement",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_appbench",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig15",
    "run_fig16",
    "run_popular_breakdown",
    "run_density",
    "run_density_comparison",
    "sweep_boundary_bandwidth",
    "sweep_pcie_bandwidth",
    "boundary_crossover",
    "validate",
]
