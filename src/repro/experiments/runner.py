"""The experiment runner: (app, emulator, machine) → metrics.

Every run builds a fresh simulator, machine and emulator, installs the app
and runs for a fixed simulated duration. Runs are pure functions of their
seeds — rerunning an experiment reproduces its numbers bit-for-bit.

:func:`build_rig` is the one construction path for a single-emulator run
(app runs, ``observe``, scenarios, chaos, recovery, Table 2, the ablations
and trace replay all use it) and :func:`drive` the one run path for an app
or an app mix, observed or not. :func:`run_app` is the in-process primitive
(it is what the engine's workers execute); :func:`run_category` and
:func:`run_emulator_suite` are sweep helpers that route through
:mod:`repro.experiments.engine` for parallelism and memoization when given
declarative app parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.base import App, AppResult
from repro.apps.catalog import AppParams, can_run
from repro.emulators import EMULATOR_FACTORIES
from repro.emulators.base import Emulator
from repro.hw.machine import HIGH_END_DESKTOP, HostMachine, MachineSpec, build_machine
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


@dataclass
class RunRig:
    """What one run is built from: clock, machine, trace log, emulator.

    ``obs`` is the run's :class:`~repro.obs.Observability`, or None for an
    unobserved run. ``emulator_name`` is the name the rig was built under,
    which every :class:`AppResult` of the run reports.
    """

    sim: Simulator
    machine: HostMachine
    trace: TraceLog
    obs: Optional["Observability"]  # noqa: F821
    emulator: Emulator
    emulator_name: str


def build_rig(
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    seed: int = 0,
    factory: Optional[Callable] = None,
    obs: Optional["Observability"] = None,  # noqa: F821
) -> RunRig:
    """Build the simulator, machine, trace log and emulator for one run.

    ``obs`` observes the run: its simulator becomes the run's clock, so a
    caller configures it (the ``observe`` command sets the reservoir and
    the span cap) and hands it over. Without it the run is unobserved on
    a fresh simulator. ``factory`` overrides the emulator constructor
    (used for the §5.4 ablations); like every registered factory it takes
    ``obs=``.

    The density experiment is the one harness that builds its own: its
    emulators share one machine, which a rig does not.
    """
    sim = obs.sim if obs is not None else Simulator()
    machine = build_machine(sim, machine_spec)
    trace = TraceLog()
    make = factory if factory is not None else EMULATOR_FACTORIES[emulator_name]
    emulator = make(sim, machine, trace=trace, rng=random.Random(seed), obs=obs)
    return RunRig(sim, machine, trace, obs, emulator, emulator_name)


def drive(
    rig: RunRig,
    apps: Sequence[App],
    duration_ms: float,
    attribution: bool = False,
) -> Tuple[List[bool], List[AppResult], Optional["LatencyBudget"]]:  # noqa: F821
    """Install ``apps`` on the rig, run the clock, collect every result.

    Returns ``(installed, results, budget)`` with one ``installed`` flag
    and one result per app. The clock always runs to ``duration_ms``,
    even when no app installed. On an observed rig this is also where the
    run's metrics view is derived
    (:func:`~repro.obs.telemetry.derive_run_metrics`), after the clock
    stops, and where ``attribution`` folds the run's causal spans into a
    :class:`~repro.obs.critical.LatencyBudget`. Both are post-hoc reads
    of what the run recorded anyway, so FPS/latency digests are
    bit-identical either way.
    """
    installed = [app.install(rig.sim, rig.emulator) for app in apps]
    rig.sim.run(until=duration_ms)
    results = [app.collect(rig.emulator_name, duration_ms) for app in apps]
    budget = None
    if rig.obs is not None:
        from repro.obs.telemetry import derive_run_metrics

        derive_run_metrics(
            rig.obs.registry, rig.trace, rig.emulator, [app.fps for app in apps]
        )
        if attribution:
            from repro.obs.critical import analyze_tracer

            budget = analyze_tracer(rig.obs.tracer)
    return installed, results, budget


def run_app(
    app: App,
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    factory: Optional[Callable] = None,
    telemetry: bool = False,
    attribution: bool = False,
) -> AppRun:
    """Run one app on one emulator for ``duration_ms`` of simulated time.

    ``factory`` overrides the emulator constructor (used for the §5.4
    ablations). ``telemetry`` attaches the observability stack (tracer +
    registry + self-profiler) and captures a picklable
    :class:`~repro.obs.telemetry.TelemetrySnapshot` onto the returned
    :class:`AppRun` — observability only reads the clock, so the
    simulated results are bit-identical either way.

    ``attribution`` (implies ``telemetry``) additionally puts the run's
    :class:`~repro.obs.critical.LatencyBudget` on the snapshot (see
    :func:`drive`).
    """
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

    obs = None
    if telemetry or attribution:
        from repro.obs import Observability

        obs = Observability(Simulator())
    rig = build_rig(emulator_name, machine_spec, seed, factory=factory, obs=obs)
    (installed,), (result,), budget = drive(
        rig, [app], duration_ms, attribution=attribution
    )
    return AppRun(
        result=result,
        emulator=rig.emulator if installed else None,
        stats=SvmStats(rig.trace, duration_ms) if installed else None,
        telemetry=None if obs is None else _capture_telemetry(
            obs, app, emulator_name, duration_ms, seed,
            result if installed else None, budget,
        ),
    )


def _capture_telemetry(obs, app, emulator_name, duration_ms, seed, result, budget):
    """Freeze an observed run's state into a picklable snapshot."""
    from repro.obs.telemetry import TelemetrySnapshot

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
    return TelemetrySnapshot.capture(obs.registry, meta=meta, attribution=budget)


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
