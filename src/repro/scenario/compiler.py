"""Lowering: scenario document → the existing apps/guest/faults machinery.

``compile_scenario`` turns a validated document into a
:class:`CompiledScenario`: declarative ``AppParams`` for each app stanza
(the same ``(factory-path, kwargs)`` form the experiment engine hashes
into cache keys), a validated :class:`~repro.faults.plan.FaultPlan`
merging the environment's bus-load timeline with its fault plan, the
thermal event schedule, and the audit knobs.

Lowering rules:

* catalog pipelines map 1:1 to their app factories; stanza knobs pass
  through **sparsely** (only keys the author wrote), so an empty stanza
  is byte-for-byte the factory's own defaults — this is what makes
  scenario-expressed catalog apps bit-identical to hand-coded runs;
* the ``graph`` pipeline lowers to
  :class:`~repro.scenario.compiled.GraphApp` with its stage list inline;
* ``environment.bus_load`` events become plan ``set_bus_load`` entries,
  merged and re-sorted with any ``environment.faults.bus_loads`` (then the
  merged plan re-runs ``validate()``);
* ``environment.thermal`` events schedule ``ThermalModel.note_busy``
  calls at run time (devices without a thermal model skip silently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.apps.catalog import AppParams
from repro.faults.plan import FaultPlan
from repro.scenario.schema import (
    DEFAULT_AUDIT_INTERVAL_MS,
    DEFAULT_FENCE_DEADLINE_MS,
    MACHINE_SPECS,
    PIPELINES,
    validate_scenario,
)


@dataclass
class CompiledScenario:
    """A scenario lowered onto the run machinery, ready to execute."""

    document: Dict[str, Any]
    name: str
    emulator: str
    machine: str
    duration_ms: float
    seed: int
    #: One ``(factory_path, kwargs)`` per app stanza, in document order.
    app_params: List[AppParams] = field(default_factory=list)
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: ``(time_ms, device, busy_ms)`` thermal events.
    thermal: List[Tuple[float, str, float]] = field(default_factory=list)
    audit_interval_ms: float = DEFAULT_AUDIT_INTERVAL_MS
    fence_deadline_ms: float = DEFAULT_FENCE_DEADLINE_MS

    @property
    def machine_spec(self):
        return MACHINE_SPECS[self.machine]


def compile_scenario(doc: Mapping[str, Any]) -> CompiledScenario:
    """Validate and lower one scenario document."""
    out = validate_scenario(doc)

    app_params: List[AppParams] = []
    for stanza in out["apps"]:
        pipeline = PIPELINES[stanza["pipeline"]]
        kwargs = {key: value for key, value in stanza.items() if key != "pipeline"}
        app_params.append((pipeline.factory, kwargs))

    env = out.get("environment", {})
    plan = FaultPlan.from_dict(env.get("faults", {}))
    for event in env.get("bus_load", []):
        plan.set_bus_load(float(event["time_ms"]), str(event["bus"]),
                          float(event["load"]))
    if plan.bus_loads:
        # The merged timeline may interleave two chronologically-ordered
        # sources; re-sort per target so validate()'s order check holds.
        plan.bus_loads.sort(key=lambda e: (e.bus, e.time_ms))
    plan.validate()

    thermal = [
        (float(event["time_ms"]), str(event["device"]), float(event["busy_ms"]))
        for event in env.get("thermal", [])
    ]
    thermal.sort()

    audit = out.get("audit", {})
    return CompiledScenario(
        document=out,
        name=out["name"],
        emulator=out["emulator"],
        machine=out["machine"],
        duration_ms=float(out["duration_ms"]),
        seed=int(out["seed"]),
        app_params=app_params,
        plan=plan,
        thermal=thermal,
        audit_interval_ms=float(audit.get("interval_ms",
                                          DEFAULT_AUDIT_INTERVAL_MS)),
        fence_deadline_ms=float(audit.get("fence_wait_deadline_ms",
                                          DEFAULT_FENCE_DEADLINE_MS)),
    )
