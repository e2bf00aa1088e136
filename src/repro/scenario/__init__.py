"""Declarative scenarios: schema, compiler, runner, fuzzer.

A *scenario* is a plain JSON-able dict describing everything one run
needs — emulator, machine, a mix of concurrent apps (catalog templates or
generic stage graphs), and an environment timeline (bus load, thermal
events, a full :class:`~repro.faults.plan.FaultPlan`). The pieces:

* :mod:`repro.scenario.schema` — stdlib validation with precise error
  paths, canonical serialization, and content digests;
* :mod:`repro.scenario.compiler` — lowers a document onto the existing
  ``apps``/``guest`` machinery (catalog factories for template pipelines,
  :class:`~repro.scenario.compiled.GraphApp` for generic graphs) plus a
  validated fault plan;
* :mod:`repro.scenario.runner` — executes a compiled scenario in one
  simulator with the fault injector and the invariant auditor installed,
  and exposes :func:`~repro.scenario.runner.scenario_point` so scenario
  runs ride the experiment engine's cache and ``--jobs`` parallelism;
* :mod:`repro.scenario.fuzz` / :mod:`repro.scenario.shrink` — a seeded
  property-based fuzzer over the schema with delta-debugging shrinking to
  minimal reproducer files.
"""

from repro.scenario.compiler import CompiledScenario, compile_scenario
from repro.scenario.fuzz import load_reproducer, run_fuzz, sample_scenario
from repro.scenario.runner import ScenarioResult, run_scenario, scenario_point
from repro.scenario.schema import (
    canonical_json,
    normalize_scenario,
    scenario_digest,
    validate_scenario,
)
from repro.scenario.shrink import shrink_scenario

__all__ = [
    "CompiledScenario",
    "ScenarioResult",
    "canonical_json",
    "compile_scenario",
    "load_reproducer",
    "normalize_scenario",
    "run_fuzz",
    "run_scenario",
    "sample_scenario",
    "scenario_digest",
    "scenario_point",
    "shrink_scenario",
    "validate_scenario",
]
