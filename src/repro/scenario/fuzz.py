"""Property-based scenario fuzzing with automatic shrinking.

:func:`sample_scenario` draws a schema-valid scenario document from a
seeded RNG — app mixes across every pipeline (including generic stage
graphs), environment timelines (bus load, thermal, fault plans built
through the :class:`~repro.faults.plan.FaultPlan` builders so they are
valid by construction), and audit knobs. One seed = one document,
bit for bit.

:func:`run_fuzz` turns seeds into engine :class:`PointSpec`s
(``fn=repro.scenario.runner:scenario_point``), so samples ride the run
cache and ``--jobs`` fan-out like any other experiment. Every non-``ok``
outcome is shrunk in-process (:func:`repro.scenario.shrink.shrink_scenario`)
against a same-signature predicate and written to a reproducer file with
enough context to replay: the minimized scenario, the original finding,
and the content sha256 the REPRODUCE line quotes.

:func:`sample_fault_plan_dict` is the *raw* (unconstrained) plan sampler
the property tests use: it draws arbitrary plan documents that may be
invalid, asserting ``from_dict`` either builds a validated plan or raises
:class:`~repro.errors.ConfigurationError` — never anything else.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.scenario.schema import (
    DEVICE_OPS,
    KNOWN_BUSES,
    MACHINE_DEVICES,
    PIPELINES,
    canonical_json,
    scenario_digest,
    validate_scenario,
)
from repro.units import KIB, MIB

#: (device, op) pairs sampled for graph stages — every schema-valid pair.
#: Capability misses (a camera stage on a camera-less emulator) are
#: handled: the app reports ``ran=False`` instead of erroring.
_GRAPH_STAGES = tuple(
    (device, op) for device, ops in sorted(DEVICE_OPS.items()) for op in ops
)

#: Pipelines the sampler draws from, weighted toward the cheap ones so a
#: 50-sample smoke run stays fast.
_PIPELINE_WEIGHTS = (
    ("video", 3),
    ("video360", 1),
    ("camera", 3),
    ("ar", 2),
    ("livestream", 1),
    ("heavy3d", 1),
    ("graph", 4),
)

_EMULATOR_WEIGHTS = (
    ("vSoC", 6),
    ("GAE", 2),
    ("QEMU-KVM", 1),
    ("LDPlayer", 1),
    ("Bluestacks", 1),
    ("Trinity", 2),
)


def _weighted(rng: random.Random, table) -> str:
    names = [name for name, _ in table]
    weights = [weight for _, weight in table]
    return rng.choices(names, weights=weights, k=1)[0]


def _sample_app(rng: random.Random, index: int, duration_ms: float) -> Dict[str, Any]:
    pipeline = _weighted(rng, _PIPELINE_WEIGHTS)
    stanza: Dict[str, Any] = {"name": f"app{index}-{pipeline}", "pipeline": pipeline}
    if pipeline == "graph":
        stages = []
        for _ in range(rng.randint(1, 3)):
            device, op = rng.choice(_GRAPH_STAGES)
            stages.append({
                "device": device,
                "op": op,
                "bytes": rng.choice((256 * KIB, MIB, 2 * MIB, 4 * MIB)),
            })
        stanza["stages"] = stages
        stanza["frame_rate"] = rng.choice((24.0, 30.0, 45.0, 60.0))
        if rng.random() < 0.5:
            stanza["burst"] = rng.randint(1, 3)
        if rng.random() < 0.4:
            stanza["buffers"] = rng.randint(2, 6)
        if rng.random() < 0.3:
            stanza["measure_latency"] = True
        stanza["frame_bytes"] = rng.choice((512 * KIB, MIB, 4 * MIB))
    else:
        fields = PIPELINES[pipeline].fields
        # Keep frames modest so a fuzz sweep stays minutes, not hours.
        if "frame_bytes" in fields and rng.random() < 0.6:
            stanza["frame_bytes"] = rng.choice((MIB, 4 * MIB, 8 * MIB))
        if "buffers" in fields and rng.random() < 0.4:
            stanza["buffers"] = rng.randint(2, 8)
        if "compose_dirty_fraction" in fields and rng.random() < 0.3:
            stanza["compose_dirty_fraction"] = round(rng.uniform(0.1, 1.0), 3)
        if "warmup_ms" in fields and rng.random() < 0.2:
            stanza["warmup_ms"] = rng.choice((500.0, 1_000.0, 2_000.0))
    return stanza


def _sample_faults(rng: random.Random, emulator: str,
                   duration_ms: float) -> Dict[str, Any]:
    """A fault plan through the builders — valid by construction."""
    plan = FaultPlan()
    if rng.random() < 0.6:
        bus = rng.choice(KNOWN_BUSES)
        start = rng.uniform(500.0, duration_ms * 0.4)
        if rng.random() < 0.5:
            plan.flap_bus(bus, start_ms=round(start, 1),
                          period_ms=rng.choice((250.0, 500.0)),
                          cycles=rng.randint(2, 4),
                          high_load=round(rng.uniform(0.4, 0.9), 2))
        else:
            plan.set_bus_load(round(start, 1), bus,
                              round(rng.uniform(0.2, 0.8), 2))
            plan.set_bus_load(round(start + rng.uniform(500.0, 1_500.0), 1),
                              bus, 0.0)
    if rng.random() < 0.4:
        # Copy faults stay on the machine buses, where the coherence
        # ladder has a degraded mode to fall back to. The boundary bus
        # has no alternative path — persistent faults there exhaust the
        # retry budget by design, so the sampler leaves it to
        # hand-written scenarios.
        start = rng.uniform(500.0, duration_ms * 0.5)
        plan.copy_faults(round(start, 1),
                         round(start + rng.uniform(300.0, 1_200.0), 1),
                         probability=round(rng.uniform(0.1, 0.6), 2),
                         bus=rng.choice(("pcie", "memctl")))
    if rng.random() < 0.35:
        plan.stall_device(round(rng.uniform(800.0, duration_ms * 0.6), 1),
                          rng.choice(MACHINE_DEVICES),
                          duration_ms=round(rng.uniform(40.0, 200.0), 1))
    if rng.random() < 0.25:
        start = rng.uniform(500.0, duration_ms * 0.5)
        plan.transport_faults(round(start, 1),
                              round(start + rng.uniform(300.0, 1_000.0), 1),
                              drop_probability=round(rng.uniform(0.05, 0.3), 2))
    if emulator == "vSoC" and rng.random() < 0.3:
        # Crash recovery is a vSoC coordinator feature; give the recovery
        # bar room: downtime must clear well before the horizon.
        downtime = round(rng.uniform(150.0, 400.0), 1)
        latest = duration_ms - downtime - 800.0
        if latest > 1_000.0:
            plan.crash_device(round(rng.uniform(1_000.0, latest), 1),
                              rng.choice(("codec", "gpu")), downtime)
    return plan.to_dict()


def sample_scenario(seed: int, quick: bool = False) -> Dict[str, Any]:
    """One schema-valid scenario document, fully determined by ``seed``."""
    rng = random.Random(f"scenario-fuzz:{seed}")
    duration = round(rng.uniform(2_000.0, 3_000.0 if quick else 4_000.0), 1)
    emulator = _weighted(rng, _EMULATOR_WEIGHTS)
    doc: Dict[str, Any] = {
        "name": f"fuzz-{seed}",
        "emulator": emulator,
        "machine": rng.choice(("high-end-desktop", "high-end-desktop",
                               "middle-end-laptop")),
        "duration_ms": duration,
        "seed": rng.randrange(2**16),
        "apps": [
            _sample_app(rng, i, duration)
            for i in range(1 if quick else rng.randint(1, 2))
        ],
    }
    environment: Dict[str, Any] = {}
    if rng.random() < 0.3:
        times = sorted(round(rng.uniform(300.0, duration * 0.8), 1)
                       for _ in range(rng.randint(1, 2)))
        bus = rng.choice(KNOWN_BUSES)
        environment["bus_load"] = [
            {"time_ms": t, "bus": bus, "load": round(rng.uniform(0.0, 0.7), 2)}
            for t in times
        ]
    if rng.random() < 0.25:
        environment["thermal"] = [{
            "time_ms": round(rng.uniform(500.0, duration * 0.7), 1),
            "device": rng.choice(MACHINE_DEVICES),
            "busy_ms": round(rng.uniform(100.0, 800.0), 1),
        }]
    if rng.random() < 0.55:
        faults = _sample_faults(rng, emulator, duration)
        if faults:
            environment["faults"] = faults
    if environment:
        doc["environment"] = environment
    if rng.random() < 0.3:
        doc["audit"] = {"interval_ms": rng.choice((25.0, 50.0, 100.0))}
    return validate_scenario(doc)


def sample_fault_plan_dict(seed: int) -> Dict[str, Any]:
    """A *raw* fault-plan document: arbitrary, frequently invalid.

    Property tests feed these to :meth:`FaultPlan.from_dict` and assert
    the only possible outcomes are a validated plan or a
    :class:`ConfigurationError` — no other exception type, ever.
    """
    rng = random.Random(f"plan-fuzz:{seed}")
    doc: Dict[str, Any] = {}
    if rng.random() < 0.1:
        doc[rng.choice(("bogus_section", "bus_load", "stallz"))] = []
    if rng.random() < 0.7:
        doc["bus_loads"] = [
            {"time_ms": rng.uniform(-100.0, 3_000.0),
             "bus": rng.choice(KNOWN_BUSES + ("warp",)),
             "load": rng.uniform(-0.2, 1.2)}
            for _ in range(rng.randint(1, 3))
        ]
    if rng.random() < 0.5:
        start = rng.uniform(-50.0, 2_000.0)
        doc["copy_windows"] = [
            {"start_ms": start,
             "end_ms": start + rng.uniform(-200.0, 1_000.0),
             "probability": rng.uniform(-0.1, 1.1)}
            for _ in range(rng.randint(1, 2))
        ]
    if rng.random() < 0.4:
        doc["stalls"] = [
            {"time_ms": rng.uniform(0.0, 2_000.0),
             "device": rng.choice(MACHINE_DEVICES),
             "duration_ms": rng.uniform(-10.0, 300.0)}
            for _ in range(rng.randint(1, 3))
        ]
    if rng.random() < 0.3:
        doc["crashes"] = [
            {"time_ms": rng.uniform(0.0, 2_000.0),
             "vdev": rng.choice(("codec", "gpu", "isp")),
             "downtime_ms": rng.uniform(-50.0, 400.0)}
            for _ in range(rng.randint(1, 2))
        ]
    if rng.random() < 0.1 and "bus_loads" in doc:
        doc["bus_loads"].append({"time": 1.0})  # wrong keys entirely
    return doc


# ---------------------------------------------------------------------------
# The fuzz campaign
# ---------------------------------------------------------------------------

def _signature(outcome: Dict[str, Any]) -> Tuple[str, Optional[str]]:
    """What makes two failures "the same" for shrinking purposes."""
    return (
        outcome.get("status", "error"),
        outcome.get("invariant") or outcome.get("error"),
    )


def _budget_summary(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Latency-budget summary of one (shrunk) scenario, or None.

    Re-runs the scenario with attribution on but the auditor lenient —
    the point is to annotate the reproducer with *where the frames'
    latency went* at the moment of failure, so the engineer replaying it
    starts with a triage, not a blank trace. Attribution is post-hoc
    span analysis (digest-identical on/off) and the run is deterministic,
    so the summary is a pure function of the document. Any failure here
    degrades to None — annotation must never block a reproducer.
    """
    from repro.scenario.runner import run_scenario

    try:
        result = run_scenario(doc, strict_audit=False, attribution=True)
        budget = result.budget
        if budget is None or not budget.frames:
            return None
        dominant = budget.dominant_cell()
        return {
            "frames": len(budget.frames),
            "total_latency_ms": budget.total_latency_ms(),
            "categories": {
                category: ms
                for category, ms in budget.category_totals().items()
                if ms > 0.0
            },
            "dominant": None if dominant is None else {
                "category": dominant[0],
                "device": dominant[1],
                "ms": dominant[2],
            },
            "conservation_ok": not budget.conservation_errors(),
        }
    except Exception:  # noqa: BLE001 — annotation is best-effort
        return None


def run_fuzz(
    max_samples: int = 50,
    seed: int = 0,
    out_dir: str = "fuzz-reproducers",
    strict_audit: bool = True,
    jobs: Optional[int] = None,
    cache: bool = True,
    quick: bool = False,
    documents: Optional[List[Dict[str, Any]]] = None,
    shrink: bool = True,
    max_shrink_checks: int = 250,
) -> Dict[str, Any]:
    """Sample → run (through the engine) → shrink failures → reproducers.

    ``documents`` bypasses sampling (replay mode). Returns a JSON-able
    report: per-sample outcomes, the findings (with shrunk documents and
    reproducer paths), and engine cache accounting.

    A campaign of no sample (``max_samples <= 0``, or an empty
    ``documents``) raises :class:`ConfigurationError` before anything
    runs: its report would read clean although nothing was checked.
    """
    from repro.experiments.engine import PointSpec, run_many
    from repro.scenario.runner import scenario_point
    from repro.scenario.shrink import shrink_scenario

    samples = len(documents) if documents is not None else max_samples
    if samples <= 0:
        raise ConfigurationError(
            f"a fuzz campaign needs at least one sample, got {samples}"
        )
    if documents is not None:
        docs = [validate_scenario(doc) for doc in documents]
        sample_seeds = list(range(len(docs)))
    else:
        sample_seeds = [seed + i for i in range(max_samples)]
        docs = [sample_scenario(s, quick=quick) for s in sample_seeds]

    specs = [
        PointSpec(
            fn="repro.scenario.runner:scenario_point",
            kwargs={"document": canonical_json(doc),
                    "strict_audit": strict_audit},
        )
        for doc in docs
    ]
    report = run_many(specs, jobs=jobs, cache=cache)

    findings: List[Dict[str, Any]] = []
    for sample_seed, doc, outcome in zip(sample_seeds, docs, report.results):
        if outcome.get("status") == "ok":
            continue
        target = _signature(outcome)
        shrunk, checks = doc, 0
        if shrink:
            def still_fails(candidate: Dict[str, Any]) -> bool:
                probe = scenario_point(canonical_json(candidate),
                                       strict_audit=strict_audit)
                return _signature(probe) == target
            shrunk, checks = shrink_scenario(doc, still_fails,
                                             max_checks=max_shrink_checks)
        digest = scenario_digest(shrunk)
        path = Path(out_dir) / f"repro-{digest[:12]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "scenario": shrunk,
            "finding": outcome,
            "fuzz_seed": sample_seed,
            "scenario_sha256": digest,
        }
        budget = _budget_summary(shrunk)
        if budget is not None:
            envelope["budget"] = budget
        path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
        findings.append({
            "fuzz_seed": sample_seed,
            "outcome": outcome,
            "shrink_checks": checks,
            "scenario_sha256": digest,
            "reproducer": str(path),
        })

    return {
        "samples": len(docs),
        "seed": seed,
        "strict_audit": strict_audit,
        "ok": len(docs) - len(findings),
        "findings": findings,
        "executed": report.executed,
        "cache_hits": report.cache_hits,
        "hit_rate": report.hit_rate,
        "wall_s": report.wall_s,
    }


def load_reproducer(path: str) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Read a reproducer (or plain scenario) file → (document, finding).

    Accepts both the ``{"scenario": ..., "finding": ...}`` envelope
    :func:`run_fuzz` writes and a bare scenario document, so REPRODUCE
    lines work on either.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: not a JSON object")
    if "scenario" in payload and "apps" not in payload:
        return (validate_scenario(payload["scenario"]),
                payload.get("finding"))
    return validate_scenario(payload), None
