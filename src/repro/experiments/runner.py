"""The experiment runner: (app, emulator, machine) → metrics.

Every run builds a fresh simulator, machine and emulator, installs the app
and runs for a fixed simulated duration. Runs are pure functions of their
seeds — rerunning an experiment reproduces its numbers bit-for-bit.

:func:`run_app` is the in-process primitive (it is what the engine's
workers execute); :func:`run_category` and :func:`run_emulator_suite` are
sweep helpers that route through :mod:`repro.experiments.engine` for
parallelism and memoization when given declarative app parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.apps.base import App, AppResult
from repro.apps.catalog import AppParams, can_run
from repro.emulators import EMULATOR_FACTORIES
from repro.emulators.base import Emulator
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec, build_machine
from repro.metrics.collectors import SvmStats
from repro.sim import Simulator
from repro.sim.tracing import TraceLog

#: Simulated test length. The paper runs 5 minutes per app; 20 simulated
#: seconds past warmup is where our pipelines' steady-state FPS stabilizes
#: to within a frame, so sweeps default to it for tractable runtimes.
DEFAULT_DURATION_MS = 22_000.0


@dataclass
class AppRun:
    """One completed run: the app result plus SVM-level statistics.

    ``stats`` is a live :class:`SvmStats` when the run happened in this
    process, or the engine's picklable
    :class:`~repro.experiments.engine.StatsSummary` (same read API) when it
    came back from a worker or the cache — in which case ``emulator`` is
    ``None``. ``telemetry`` is a picklable
    :class:`~repro.obs.telemetry.TelemetrySnapshot` when the run was executed
    with ``telemetry=True``.
    """

    result: AppResult
    emulator: Optional[Emulator]
    stats: Optional[Union[SvmStats, "StatsSummary"]]  # noqa: F821
    telemetry: Optional["TelemetrySnapshot"] = None  # noqa: F821


def run_app(
    app: App,
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    trace_kinds: Optional[Sequence[str]] = None,
    factory: Optional[Callable] = None,
    telemetry: bool = False,
    attribution: bool = False,
) -> AppRun:
    """Run one app on one emulator for ``duration_ms`` of simulated time.

    ``trace_kinds`` narrows instrumentation for speed; ``factory``
    overrides the emulator constructor (used for the §5.4 ablations).
    ``telemetry`` attaches the observability stack (tracer + registry +
    self-profiler) and captures a picklable
    :class:`~repro.obs.telemetry.TelemetrySnapshot` onto the returned
    :class:`AppRun` — observability only reads the clock, so the
    simulated results are bit-identical either way.

    ``attribution`` (implies ``telemetry``) additionally folds the run's
    causal spans into a :class:`~repro.obs.critical.LatencyBudget` on the
    snapshot and mirrors the per-(category × device) totals into
    ``budget.ms`` counters so telemetry rollups see them.  Attribution is
    post-hoc analysis of spans that were recorded anyway: it cannot
    perturb the run, and FPS/latency digests stay bit-identical with it
    on or off.
    """
    sim = Simulator()
    machine = build_machine(sim, machine_spec)
    trace = TraceLog(kinds=list(trace_kinds) if trace_kinds is not None else None)
    obs = None
    if telemetry or attribution:
        from repro.obs import Observability

        obs = Observability(sim)
    make = factory if factory is not None else EMULATOR_FACTORIES[emulator_name]
    rng = random.Random(seed)
    if obs is not None:
        try:
            emulator = make(sim, machine, trace=trace, rng=rng, obs=obs)
        except TypeError:
            # Custom factories (ablation partials) may not take ``obs``;
            # run them unobserved rather than failing the whole point.
            obs = None
            emulator = make(sim, machine, trace=trace, rng=rng)
    else:
        emulator = make(sim, machine, trace=trace, rng=rng)

    if not can_run(app.name, emulator_name):
        result = AppResult(
            app=app.name,
            category=app.category,
            emulator=emulator_name,
            duration_ms=duration_ms,
            ran=False,
            fail_reason="app incompatible with this emulator (crash/ANR, §5.3)",
        )
        return AppRun(result=result, emulator=None, stats=None)

    if obs is not None:
        app.fps.attach_registry(obs.registry)
    if not app.install(sim, emulator):
        return AppRun(
            result=app.collect(emulator_name, duration_ms), emulator=None, stats=None,
            telemetry=_capture_telemetry(obs, trace, app, emulator_name,
                                         duration_ms, seed, result=None,
                                         attribution=attribution),
        )

    sim.run(until=duration_ms)
    result = app.collect(emulator_name, duration_ms)
    return AppRun(
        result=result, emulator=emulator, stats=SvmStats(trace, duration_ms),
        telemetry=_capture_telemetry(obs, trace, app, emulator_name,
                                     duration_ms, seed, result=result,
                                     attribution=attribution),
    )


def _capture_telemetry(obs, trace, app, emulator_name, duration_ms, seed, result,
                       attribution=False):
    """Freeze an observed run's state into a picklable snapshot."""
    if obs is None:
        return None
    from repro.metrics.collectors import ResilienceStats
    from repro.obs.telemetry import TelemetrySnapshot

    ResilienceStats(trace).to_registry(obs.registry)
    budget = None
    if attribution:
        from repro.obs.critical import analyze_tracer

        budget = analyze_tracer(obs.tracer)
        # Mirror the per-cell totals into counters: telemetry rollups and the
        # dashboard then aggregate budgets with zero aggregator changes.
        for (category, device), ms in budget.totals().items():
            obs.registry.counter(
                "budget.ms", category=category, device=device
            ).inc(ms)
    meta = {
        "app": app.name,
        "category": app.category,
        "emulator": emulator_name,
        "duration_ms": duration_ms,
        "seed": seed,
        "ran": int(result is not None and result.ran),
    }
    if result is not None:
        meta["fps"] = round(result.fps, 6)
        meta["presented"] = result.presented
    return TelemetrySnapshot.capture(
        obs.registry, profiler=obs.profiler, tracer=obs.tracer, meta=meta,
        attribution=budget,
    )


def run_category(
    apps: Sequence[Union[App, AppParams]],
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> List[AppRun]:
    """Run a list of apps on one emulator.

    Declarative ``(factory, kwargs)`` parameters (see
    :func:`repro.apps.catalog.emerging_app_params`) route through the
    engine — parallel across ``jobs`` cores, memoized on disk. Live
    :class:`App` instances cannot cross a process boundary, so they take
    the direct in-process path with no memoization.
    """
    if any(isinstance(a, App) for a in apps):
        from repro.apps.catalog import build_app

        return [
            run_app(
                app if isinstance(app, App) else build_app(app),
                emulator_name, machine_spec, duration_ms, seed=seed,
            )
            for app in apps
        ]
    from repro.experiments.engine import run_many, specs_for_apps

    specs = specs_for_apps(
        list(apps), emulator_name, machine_spec, duration_ms, seed=seed
    )
    report = run_many(specs, jobs=jobs, cache=cache)
    return [
        AppRun(result=r.result, emulator=None, stats=r.stats)
        for r in report.results
    ]


def run_emulator_suite(
    make_apps: Callable[[], Sequence[Union[App, AppParams]]],
    emulator_names: Sequence[str],
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> Dict[str, List[AppRun]]:
    """Run a (re-instantiated) app list on every emulator.

    With a parameter-producing ``make_apps`` (e.g.
    ``lambda: emerging_app_params(seed=0)``) the whole suite — every
    (app, emulator) pair — is fanned out through the engine at once, so
    parallelism is not limited to one emulator's apps at a time.
    """
    per_emulator = {name: list(make_apps()) for name in emulator_names}
    if any(isinstance(a, App) for apps in per_emulator.values() for a in apps):
        return {
            name: run_category(apps, name, machine_spec, duration_ms, seed=seed)
            for name, apps in per_emulator.items()
        }
    from repro.experiments.engine import run_many, specs_for_apps

    flat = []
    for name, params in per_emulator.items():
        flat.extend(
            specs_for_apps(params, name, machine_spec, duration_ms, seed=seed)
        )
    report = run_many(flat, jobs=jobs, cache=cache)
    merged: Dict[str, List[AppRun]] = {}
    cursor = 0
    for name, params in per_emulator.items():
        chunk = report.results[cursor:cursor + len(params)]
        cursor += len(params)
        merged[name] = [
            AppRun(result=r.result, emulator=None, stats=r.stats) for r in chunk
        ]
    return merged


def mean_fps(runs: Sequence[AppRun]) -> Optional[float]:
    """Average FPS over the runs that ran; None if none did."""
    values = [r.result.fps for r in runs if r.result.ran]
    if not values:
        return None
    return sum(values) / len(values)


def mean_latency(runs: Sequence[AppRun]) -> Optional[float]:
    """Average motion-to-photon latency over runs that measured one."""
    values = [
        r.result.latency_avg for r in runs if r.result.ran and r.result.latency_avg
    ]
    if not values:
        return None
    return sum(values) / len(values)
