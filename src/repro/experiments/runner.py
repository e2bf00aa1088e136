"""The experiment runner: (app, emulator, machine) → metrics.

Every run builds a fresh simulator, machine and emulator, installs the app
and runs for a fixed simulated duration. Runs are pure functions of their
seeds — rerunning an experiment reproduces its numbers bit-for-bit.

:func:`build_rig` is the one construction path for a single-emulator run
(app runs, ``observe``, scenarios, chaos, recovery, Table 2, the ablations
and trace replay all use it) and :func:`drive` the one run path for an app
or an app mix, observed or not. :func:`run_app` is the in-process primitive
(it is what the engine's workers execute); sweeps submit declarative app
parameters through :mod:`repro.experiments.engine` for parallelism and
memoization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import isfinite
from typing import Callable, List, Optional, Sequence, Tuple

from repro.apps.base import App, AppResult
from repro.apps.catalog import can_run
from repro.emulators import EMULATOR_FACTORIES
from repro.emulators.base import Emulator
from repro.hw.machine import HIGH_END_DESKTOP, HostMachine, MachineSpec, build_machine
from repro.metrics.collectors import SvmStats
from repro.obs.span import NULL_TRACER, Tracer
from repro.sim import Simulator
from repro.sim.tracing import TraceLog

#: Simulated test length. The paper runs 5 minutes per app; 20 simulated
#: seconds past warmup is where our pipelines' steady-state FPS stabilizes
#: to within a frame, so sweeps default to it for tractable runtimes.
DEFAULT_DURATION_MS = 22_000.0


@dataclass
class AppRun:
    """One completed run: the app result plus SVM-level statistics.

    ``stats`` is the run's frozen :class:`SvmStats`. ``emulator`` is
    ``None`` when the app did not install, or when the run came back from
    an engine worker or the cache. ``telemetry`` is a picklable
    :class:`~repro.obs.telemetry.TelemetrySnapshot` when the run was executed
    with ``telemetry=True``.
    """

    result: AppResult
    emulator: Optional[Emulator]
    stats: Optional[SvmStats]
    telemetry: Optional["TelemetrySnapshot"] = None  # noqa: F821


@dataclass
class RunRig:
    """What one run is built from: clock, machine, trace log, emulator.

    ``tracer`` is the run's :class:`~repro.obs.span.Tracer`, or
    :data:`~repro.obs.span.NULL_TRACER` for an unobserved run.
    ``emulator_name`` is the name the rig was built under, which every
    :class:`AppResult` of the run reports.
    """

    sim: Simulator
    machine: HostMachine
    trace: TraceLog
    tracer: Tracer
    emulator: Emulator
    emulator_name: str


def build_rig(
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    seed: int = 0,
    factory: Optional[Callable] = None,
    observed: bool = False,
) -> RunRig:
    """Build the simulator, machine, trace log and emulator for one run.

    ``observed`` gives the emulator a :class:`~repro.obs.span.Tracer` on
    the run's own simulator; otherwise it carries the null tracer.
    ``factory`` overrides the emulator constructor (used for the §5.4
    ablations); like every registered factory it takes ``tracer=``.

    The density experiment is the one harness that builds its own: its
    emulators share one machine, which a rig does not.
    """
    sim = Simulator()
    machine = build_machine(sim, machine_spec)
    trace = TraceLog()
    tracer = Tracer(sim) if observed else NULL_TRACER
    make = factory if factory is not None else EMULATOR_FACTORIES[emulator_name]
    emulator = make(sim, machine, trace=trace, rng=random.Random(seed), tracer=tracer)
    return RunRig(sim, machine, trace, tracer, emulator, emulator_name)


def drive(
    rig: RunRig,
    apps: Sequence[App],
    duration_ms: float,
    attribution: bool = False,
) -> Tuple[List[bool], List[AppResult], Optional["LatencyBudget"]]:  # noqa: F821
    """Install ``apps`` on the rig, run the clock, collect every result.

    Returns ``(installed, results, budget)`` with one ``installed`` flag
    and one result per app. The clock always runs to ``duration_ms``,
    even when no app installed; it must be finite and positive.
    ``attribution`` needs an observed rig (``build_rig(...,
    observed=True)``): it folds the run's causal spans (the compact table
    of its :class:`~repro.obs.span.SpanView`) into a
    :class:`~repro.obs.critical.LatencyBudget` after the clock stops, a
    post-hoc read of what the run recorded anyway, so FPS/latency digests
    are bit-identical either way. Without it the budget is None.
    """
    if not (isfinite(duration_ms) and duration_ms > 0):
        raise ValueError(f"duration_ms must be finite and > 0, got {duration_ms!r}")
    if attribution and not rig.tracer.enabled:
        raise ValueError(
            "attribution reads the run's spans, which an unobserved rig does "
            "not record: build it with build_rig(..., observed=True)"
        )
    installed = [app.install(rig.sim, rig.emulator) for app in apps]
    rig.sim.run(until=duration_ms)
    results = [app.collect(rig.emulator_name, duration_ms) for app in apps]
    budget = None
    if attribution:
        from repro.obs.critical import analyze_tracer
        from repro.obs.span import SpanView

        budget = analyze_tracer(SpanView(rig.tracer, rig.trace))
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
    ablations). ``telemetry`` observes the run and derives its metrics
    after the clock stops (:func:`~repro.obs.telemetry.derive_run_metrics`)
    into a picklable :class:`~repro.obs.telemetry.TelemetrySnapshot` on
    the returned :class:`AppRun` — observability only reads the clock, so
    the simulated results are bit-identical either way.

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

    observed = telemetry or attribution
    rig = build_rig(
        emulator_name, machine_spec, seed, factory=factory, observed=observed
    )
    (installed,), (result,), budget = drive(
        rig, [app], duration_ms, attribution=attribution
    )
    return AppRun(
        result=result,
        emulator=rig.emulator if installed else None,
        stats=SvmStats.from_trace(rig.trace, duration_ms) if installed else None,
        telemetry=_capture_telemetry(
            rig, app, duration_ms, seed, result if installed else None, budget
        ) if observed else None,
    )


def _capture_telemetry(rig, app, duration_ms, seed, result, budget):
    """Derive an observed run's metrics into a picklable snapshot."""
    from repro.obs.telemetry import derive_run_metrics, labels_key

    meta = {
        "app": app.name,
        "category": app.category,
        "emulator": rig.emulator_name,
        "duration_ms": duration_ms,
        "seed": seed,
        "ran": int(result is not None and result.ran),
    }
    if result is not None:
        meta["fps"] = round(result.fps, 6)
        meta["presented"] = result.presented
    snapshot = derive_run_metrics(rig.trace, rig.emulator, [app.fps])
    return replace(snapshot, meta=labels_key(meta), attribution=budget)
