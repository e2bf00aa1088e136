"""Execute a compiled scenario: one simulator, faults + auditor installed.

:func:`run_scenario` is the in-process primitive (the scenario analogue
of :func:`repro.experiments.runner.run_app`): it builds the rig, arms the
fault injector, the invariant auditor and the thermal schedule, runs the
app mix through :func:`~repro.experiments.runner.drive` and returns a
:class:`ScenarioResult` whose ``digest`` is a stable hash of all per-app
FPS/latency numbers — the value the bit-identity and round-trip tests
compare.

:func:`scenario_point` is the engine entry point
(``PointSpec(fn="repro.scenario.runner:scenario_point")``): it takes the
scenario as its canonical JSON string (picklable, hashed into the run
cache key) and *returns* outcome dicts instead of raising, so a strict
audit violation inside a worker process becomes data the fuzzer can
shrink, not a crashed pool.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.apps.base import AppResult
from repro.apps.catalog import build_app
from repro.errors import InvariantViolation, ReproError
from repro.experiments.runner import build_rig, drive
from repro.faults import FaultInjector
from repro.metrics.collectors import ResilienceStats
from repro.recovery.audit import install_auditor
from repro.scenario.compiler import CompiledScenario, compile_scenario
from repro.scenario.schema import scenario_digest
from repro.sim.tracing import TraceLog

#: In-flight recovery slack: a crash whose downtime ends within this much
#: of the run end is not *expected* to have completed recovery.
RECOVERY_GRACE_MS = 500.0


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    emulator: str
    seed: int
    duration_ms: float
    apps: List[AppResult] = field(default_factory=list)
    #: Stable hash over every app's FPS/latency outcome (bit-identity key).
    digest: str = ""
    violations: List[Dict[str, Any]] = field(default_factory=list)
    audits: int = 0
    checks: int = 0
    crashes: int = 0
    recoveries: int = 0
    expected_crashes: int = 0
    last_crash_end_ms: float = 0.0
    injected: Dict[str, int] = field(default_factory=dict)
    thermal_applied: int = 0
    trace: Optional[TraceLog] = None
    #: LatencyBudget when the run was executed with ``attribution=True``
    #: (see :mod:`repro.obs.critical`); None otherwise.
    budget: Optional[Any] = None


def app_digest(results: List[AppResult]) -> str:
    """sha256 over the run-outcome fields of every app, order-sensitive.

    Floats go through ``repr`` (shortest round-trip form), so two runs
    digest equal iff their collected numbers are bit-identical.
    """
    rows = []
    for result in results:
        rows.append([
            result.app,
            result.category,
            result.emulator,
            repr(float(result.duration_ms)),
            result.ran,
            repr(float(result.fps)),
            result.presented,
            sorted(result.dropped.items()),
            None if result.latency_avg is None else repr(float(result.latency_avg)),
            None if result.latency_p95 is None else repr(float(result.latency_p95)),
        ])
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_scenario(
    scenario: Union[Mapping[str, Any], CompiledScenario],
    strict_audit: bool = False,
    keep_trace: bool = False,
    duration_ms: Optional[float] = None,
    attribution: bool = False,
) -> ScenarioResult:
    """Run one scenario end to end; deterministic per (document, seed).

    ``strict_audit=True`` raises :class:`InvariantViolation` on the first
    violated invariant (the fuzzer's failure signal); otherwise violations
    are collected into the result. ``duration_ms`` overrides the
    document's run length (used by the bit-identity tests).
    ``attribution`` attaches the observability tracer and folds the run's
    causal spans into a :class:`~repro.obs.critical.LatencyBudget` on
    ``result.budget`` — pure post-hoc span analysis, so ``digest`` is
    bit-identical with it on or off (the fuzzer relies on this when it
    annotates reproducers with budget summaries).
    """
    compiled = (
        scenario
        if isinstance(scenario, CompiledScenario)
        else compile_scenario(scenario)
    )
    horizon = float(duration_ms) if duration_ms is not None else compiled.duration_ms

    rig = build_rig(
        compiled.emulator, compiled.machine_spec, compiled.seed, observed=attribution
    )

    injector = FaultInjector(rig.sim, compiled.plan, seed=compiled.seed, trace=rig.trace)
    if not compiled.plan.is_empty():
        injector.install(rig.emulator)

    # Auditor before app installs, matching the chaos harness order.
    auditor = install_auditor(
        rig.emulator,
        interval_ms=compiled.audit_interval_ms,
        fence_wait_deadline_ms=compiled.fence_deadline_ms,
        raise_on_violation=strict_audit,
    )

    thermal_applied = 0
    for time_ms, device_name, busy_ms in compiled.thermal:
        device = rig.machine.devices.get(device_name)
        model = getattr(device, "thermal", None)
        if model is None:
            continue  # this device has no thermal model on this machine
        rig.sim.schedule(time_ms, model.note_busy, busy_ms)
        thermal_applied += 1

    apps = [build_app(params) for params in compiled.app_params]
    _, results, budget = drive(rig, apps, horizon, attribution=attribution)
    auditor.sweep()  # final sweep at the horizon

    resilience = ResilienceStats(rig.trace)
    report = auditor.report()
    return ScenarioResult(
        name=compiled.name,
        emulator=compiled.emulator,
        seed=compiled.seed,
        duration_ms=horizon,
        apps=results,
        digest=app_digest(results),
        violations=report["violations"],
        audits=report["audits"],
        checks=report["checks"],
        crashes=resilience.crashes,
        recoveries=resilience.recoveries,
        expected_crashes=len(compiled.plan.crashes),
        last_crash_end_ms=max(
            (c.time_ms + c.downtime_ms for c in compiled.plan.crashes),
            default=0.0,
        ),
        injected=injector.stats.as_dict(),
        thermal_applied=thermal_applied,
        trace=rig.trace if keep_trace else None,
        budget=budget,
    )


def scenario_point(document: str, strict_audit: bool = True) -> Dict[str, Any]:
    """Engine worker entry: canonical-JSON scenario in, outcome dict out.

    Never raises — outcomes are data so they survive worker pools and the
    run cache. ``status`` is one of:

    * ``"ok"`` — ran clean (and, when crashes were planned with room to
      recover, every crash recovered);
    * ``"violation"`` — an invariant fired (``invariant``/``message``);
    * ``"recovery"`` — a planned device crash failed the PR-4 recovery
      bar (downtime ended ≥ ``RECOVERY_GRACE_MS`` before the horizon but
      no recovery completed);
    * ``"error"`` — any other exception (``error`` is the type name).
    """
    doc = json.loads(document)
    digest = scenario_digest(doc)
    base: Dict[str, Any] = {"scenario_sha256": digest}
    try:
        result = run_scenario(doc, strict_audit=strict_audit)
    except InvariantViolation as err:
        return {
            **base,
            "status": "violation",
            "invariant": err.invariant,
            "message": str(err),
        }
    except ReproError as err:
        return {
            **base,
            "status": "error",
            "error": type(err).__name__,
            "message": str(err),
        }
    except Exception as err:  # noqa: BLE001 — workers must not die
        return {
            **base,
            "status": "error",
            "error": type(err).__name__,
            "message": str(err),
        }
    if result.violations:
        first = result.violations[0]
        return {
            **base,
            "status": "violation",
            "invariant": first["invariant"],
            "message": first["message"],
        }
    recovery_due = (
        result.expected_crashes > 0
        and result.last_crash_end_ms + RECOVERY_GRACE_MS <= result.duration_ms
    )
    if recovery_due and result.recoveries < result.expected_crashes:
        return {
            **base,
            "status": "recovery",
            "message": (
                f"{result.recoveries}/{result.expected_crashes} planned "
                "device crashes recovered before the horizon"
            ),
            "crashes": result.crashes,
            "recoveries": result.recoveries,
        }
    return {
        **base,
        "status": "ok",
        "digest": result.digest,
        "apps": [
            {
                "app": r.app,
                "ran": r.ran,
                "fps": r.fps,
                "presented": r.presented,
            }
            for r in result.apps
        ],
        "crashes": result.crashes,
        "recoveries": result.recoveries,
    }
