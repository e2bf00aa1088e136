"""``explain``: where did each frame's latency go?

The front door of the latency-attribution engine
(:mod:`repro.obs.critical`).  One command runs a single (app, emulator)
pair with attribution enabled — or replays it from the engine's run
cache, since the :class:`~repro.obs.critical.LatencyBudget` rides the
cached :class:`~repro.obs.telemetry.TelemetrySnapshot` — and prints:

* the per-category × device **latency budget** (ms and share), with the
  conservation invariant checked (cells must sum to measured latency);
* the **critical path** of the worst frame: the maximum-duration chain
  of causal activities that ended at its presentation;
* the frame-deadline **SLO** verdict (:mod:`repro.obs.slo`);
* with ``--against OTHER``, a **differential triage**
  (:mod:`repro.obs.diff`): the budget of OTHER on the same app, aligned
  frame-by-frame against the primary emulator, localized to the
  dominant regressed cell and graded with a seeded bootstrap — e.g.
  ``p99 +3.1 ms, 92% from bus_transfer on gpu``.

Both modes emit a JSON artifact (``--out``) whose shape is pinned by
``validate_attribution`` / ``validate_attribution_diff`` — CI's contract
for downstream consumers.

Attribution is pure post-hoc analysis of spans recorded anyway: FPS and
latency digests are bit-identical with it on or off, and a warm-cache
``explain`` never re-simulates.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec

#: Schema identifier stamped into every single-run attribution JSON.
ATTRIBUTION_SCHEMA = "repro-attribution-v1"

#: Schema identifier stamped into every differential attribution JSON.
DIFF_SCHEMA = "repro-attribution-diff-v1"

DEFAULT_DURATION_MS = 8_000.0

#: Workloads explain can attribute (same set the ``observe`` command runs),
#: as dotted factory paths the engine's workers resolve.
APP_FACTORIES: Dict[str, str] = {
    "video": "repro.apps.video:UhdVideoApp",
    "camera": "repro.apps.camera:CameraApp",
    "ar": "repro.apps.ar:ArApp",
    "livestream": "repro.apps.livestream:LivestreamApp",
}


def resolve_emulator(name: str) -> str:
    """Map a CLI emulator spelling onto its canonical factory key.

    The factories register under display names (``vSoC``, ``QEMU-KVM``);
    the CLI accepts any casing and treats ``-``/``_`` as equivalent, so
    ``--against qemu_kvm`` finds ``QEMU-KVM``.
    """
    from repro.emulators import EMULATOR_FACTORIES

    if name in EMULATOR_FACTORIES:
        return name
    wanted = name.lower().replace("_", "-")
    for key in EMULATOR_FACTORIES:
        if key.lower().replace("_", "-") == wanted:
            return key
    raise ValueError(
        f"unknown emulator {name!r}; choose from {sorted(EMULATOR_FACTORIES)}"
    )


def explain_run(
    app: str,
    emulator: str,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    cache: bool = True,
) -> Tuple[Any, Any]:
    """One attributed run → (LatencyBudget, AppResult).

    Routes through the engine so the budget is memoized with the run: a
    second ``explain`` of the same point reads the persisted snapshot
    and attributes without simulating.
    """
    from repro.experiments.engine import RunSpec, run_one
    from repro.obs.critical import budget_from_snapshot

    if app not in APP_FACTORIES:
        raise ValueError(f"unknown app {app!r}; choose from {sorted(APP_FACTORIES)}")
    spec = RunSpec(
        app_factory=APP_FACTORIES[app],
        app_kwargs={},
        emulator=resolve_emulator(emulator),
        machine_spec=machine_spec,
        duration_ms=duration_ms,
        seed=seed,
        telemetry=True,
        attribution=True,
    )
    run = run_one(spec, cache=cache)
    budget = budget_from_snapshot(run.telemetry)
    if budget is None:
        raise RuntimeError(
            f"run of {app!r} on {spec.emulator!r} produced no attribution "
            "(app incompatible with this emulator?)"
        )
    return budget, run.result


def attribution_report(
    budget: Any,
    app: str,
    emulator: str,
    duration_ms: float,
    seed: int,
    deadline_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """The single-run attribution JSON (schema ``repro-attribution-v1``)."""
    from repro.metrics.stats import percentile
    from repro.obs.slo import SloSpec, evaluate_frames

    totals = budget.totals()
    total_ms = sum(totals.values())
    cells = [
        {
            "category": category,
            "device": device,
            "ms": ms,
            "share": ms / total_ms if total_ms > 0 else 0.0,
        }
        for (category, device), ms in totals.items()
    ]
    dominant = budget.dominant_cell()
    latencies = budget.latencies()
    spec = SloSpec() if deadline_ms is None else SloSpec(deadline_ms=deadline_ms)
    slo = evaluate_frames(latencies, spec)
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "app": app,
        "emulator": emulator,
        "duration_ms": duration_ms,
        "seed": seed,
        "frames": len(budget.frames),
        "skipped_flows": len(budget.skipped_flows),
        "latency": {
            "p50_ms": percentile(latencies, 50.0, default=None),
            "p95_ms": percentile(latencies, 95.0, default=None),
            "p99_ms": percentile(latencies, 99.0, default=None),
            "total_ms": budget.total_latency_ms(),
        },
        "cells": cells,
        "categories": budget.category_totals(),
        "dominant": None if dominant is None else {
            "category": dominant[0], "device": dominant[1], "ms": dominant[2],
        },
        "conservation": {
            "ok": not budget.conservation_errors(),
            "violations": budget.conservation_errors(),
        },
        "slo": slo.to_dict(),
        "critical_path": [
            {"name": s.name, "track": s.track,
             "start_ms": s.start_ms, "end_ms": s.end_ms, "ms": s.ms}
            for s in budget.critical_path
        ],
        "budget": budget.to_dict(),
    }


def diff_report(
    base_report: Dict[str, Any],
    against_report: Dict[str, Any],
    diff: Dict[str, Any],
) -> Dict[str, Any]:
    """The differential attribution JSON (schema ``repro-attribution-diff-v1``).

    ``base`` is the primary (``--emulator``) run, ``candidate`` the
    ``--against`` run: the diff localizes where the latter spends *more*.
    """
    return {
        "schema": DIFF_SCHEMA,
        "app": base_report["app"],
        "base": {k: base_report[k] for k in
                 ("emulator", "frames", "latency", "categories", "dominant")},
        "candidate": {k: against_report[k] for k in
                      ("emulator", "frames", "latency", "categories", "dominant")},
        "diff": diff,
        "headline": (
            f"{against_report['emulator']} vs {base_report['emulator']}: "
            f"{diff['headline']}"
        ),
    }


# ---------------------------------------------------------------------------
# Schema validators (CI's contract)
# ---------------------------------------------------------------------------

def _need(problems: List[str], mapping: Any, key: str, types, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        problems.append(f"{where}: missing {key!r}")
        return None
    value = mapping[key]
    if not isinstance(value, types):
        problems.append(
            f"{where}.{key}: expected {types}, got {type(value).__name__}"
        )
        return None
    return value


def validate_attribution(data: Any) -> List[str]:
    """Schema check for a single-run attribution JSON; returns problems."""
    from repro.obs.critical import BUDGET_CATEGORIES

    problems: List[str] = []
    if _need(problems, data, "schema", str, "root") != ATTRIBUTION_SCHEMA:
        problems.append(f"root.schema: expected {ATTRIBUTION_SCHEMA!r}")
    for key in ("app", "emulator"):
        _need(problems, data, key, str, "root")
    frames = _need(problems, data, "frames", int, "root")
    if frames is not None and frames < 0:
        problems.append("root.frames: must be >= 0")
    cells = _need(problems, data, "cells", list, "root")
    if cells is not None:
        for i, cell in enumerate(cells):
            where = f"cells[{i}]"
            category = _need(problems, cell, "category", str, where)
            if category is not None and category not in BUDGET_CATEGORIES:
                problems.append(f"{where}.category: unknown {category!r}")
            _need(problems, cell, "device", str, where)
            ms = _need(problems, cell, "ms", (int, float), where)
            if ms is not None and ms < 0:
                problems.append(f"{where}.ms: must be >= 0")
    categories = _need(problems, data, "categories", dict, "root")
    if categories is not None:
        for category in BUDGET_CATEGORIES:
            if category not in categories:
                problems.append(f"categories: missing {category!r}")
    conservation = _need(problems, data, "conservation", dict, "root")
    if conservation is not None:
        ok = conservation.get("ok")
        if ok is not True:
            problems.append(
                "conservation.ok: cells do not sum to measured frame latency"
            )
    _need(problems, data, "latency", dict, "root")
    _need(problems, data, "slo", dict, "root")
    _need(problems, data, "critical_path", list, "root")
    _need(problems, data, "budget", dict, "root")
    return problems


def validate_attribution_diff(data: Any) -> List[str]:
    """Schema check for a differential attribution JSON; returns problems."""
    problems: List[str] = []
    if _need(problems, data, "schema", str, "root") != DIFF_SCHEMA:
        problems.append(f"root.schema: expected {DIFF_SCHEMA!r}")
    _need(problems, data, "app", str, "root")
    for side in ("base", "candidate"):
        node = _need(problems, data, side, dict, "root")
        if node is not None:
            _need(problems, node, "emulator", str, side)
            _need(problems, node, "frames", int, side)
    diff = _need(problems, data, "diff", dict, "root")
    if diff is not None:
        matched = _need(problems, diff, "frames_matched", int, "diff")
        if matched is not None and matched < 0:
            problems.append("diff.frames_matched: must be >= 0")
        _need(problems, diff, "cells", list, "diff")
        _need(problems, diff, "latency", dict, "diff")
        bootstrap = _need(problems, diff, "bootstrap", dict, "diff")
        if bootstrap is not None:
            p_value = bootstrap.get("p_value")
            if p_value is not None and not (
                isinstance(p_value, (int, float)) and 0.0 <= p_value <= 1.0
            ):
                problems.append("diff.bootstrap.p_value: not in [0, 1]")
        dominant = diff.get("dominant")
        if dominant is not None:
            _need(problems, dominant, "category", str, "diff.dominant")
            _need(problems, dominant, "device", str, "diff.dominant")
    _need(problems, data, "headline", str, "root")
    return problems


# ---------------------------------------------------------------------------
# CLI body
# ---------------------------------------------------------------------------

def _print_budget(report: Dict[str, Any]) -> None:
    print(f"Latency budget — {report['app']!r} on {report['emulator']!r} "
          f"({report['frames']} frames, "
          f"{report['latency']['total_ms']:.1f} ms total latency):")
    for cell in sorted(report["cells"], key=lambda c: -c["ms"]):
        bar = "#" * max(1, round(24 * cell["share"]))
        print(f"  {cell['category']:18s} {cell['device']:10s} "
              f"{cell['ms']:10.1f} ms {100 * cell['share']:5.1f}%  {bar}")
    dominant = report["dominant"]
    if dominant:
        print(f"  dominant: {dominant['category']} on {dominant['device']} "
              f"({dominant['ms']:.1f} ms)")
    lat = report["latency"]
    if lat["p50_ms"] is not None:
        print(f"  frame latency: p50 {lat['p50_ms']:.2f} ms, "
              f"p95 {lat['p95_ms']:.2f} ms, p99 {lat['p99_ms']:.2f} ms")
    slo = report["slo"]
    print(f"  SLO {slo['spec']['name']} (deadline {slo['spec']['deadline_ms']:.0f} ms, "
          f"target {100 * slo['spec']['target']:.0f}%): "
          f"{'MET' if slo['met'] else 'MISSED'} "
          f"(compliance {100 * slo['compliance']:.1f}%, "
          f"peak burn {slo['peak_burn']:.2f}x)")
    if report["skipped_flows"]:
        print(f"  note: {report['skipped_flows']} in-flight flow(s) never "
              "presented — excluded, not guessed at")
    print(f"  conservation: "
          f"{'ok' if report['conservation']['ok'] else 'VIOLATED'} "
          "(cells sum to measured latency per frame)")
    path = report["critical_path"]
    if path:
        print(f"  critical path of the worst frame ({len(path)} steps):")
        for step in path:
            print(f"    {step['start_ms']:10.3f} -> {step['end_ms']:10.3f} ms  "
                  f"{step['name']}  [{step['track']}]")


def cmd_explain(
    app: str,
    emulator: str,
    against: Optional[str] = None,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    out_path: Optional[str] = None,
    deadline_ms: Optional[float] = None,
    cache: bool = True,
) -> int:
    """CLI body: attribute one run, optionally diff it against another."""
    emulator = resolve_emulator(emulator)
    budget, _result = explain_run(
        app, emulator, duration_ms=duration_ms, seed=seed, cache=cache
    )
    report = attribution_report(
        budget, app, emulator, duration_ms, seed, deadline_ms=deadline_ms
    )
    _print_budget(report)
    payload: Dict[str, Any] = report
    problems = validate_attribution(report)

    if against is not None:
        from repro.obs.diff import diff_budgets

        against = resolve_emulator(against)
        against_budget, _ = explain_run(
            app, against, duration_ms=duration_ms, seed=seed, cache=cache
        )
        against_rep = attribution_report(
            against_budget, app, against, duration_ms, seed,
            deadline_ms=deadline_ms,
        )
        diff = diff_budgets(budget, against_budget, seed=seed)
        payload = diff_report(report, against_rep, diff)
        problems = validate_attribution_diff(payload)
        print(f"\nDifferential triage — {against!r} vs {emulator!r} "
              f"({diff['frames_matched']} matched frames):")
        print(f"  {diff['headline']}")
        for cell in sorted(diff["cells"], key=lambda c: -abs(c["delta_ms"]))[:6]:
            print(f"  {cell['category']:18s} {cell['device']:10s} "
                  f"{cell['base_ms']:9.1f} -> {cell['candidate_ms']:9.1f} ms "
                  f"({cell['delta_ms']:+.1f} ms)")

    if problems:
        for problem in problems:
            print(f"SCHEMA PROBLEM: {problem}")
        return 1
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nWrote {out_path}")
    return 0
