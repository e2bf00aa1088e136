"""The four catalog workloads and the per-point digest.

Each workload is a list of engine ``RunSpec`` points built from the
benchmark seed: the seed feeds the catalog's parameter jitter
(``emerging_app_params`` / ``popular_app_params``) and ``RunSpec.seed``.
Every point runs on ``HIGH_END_DESKTOP``.

This module imports ``repro`` lazily so that the benchmark's children
can time their imports from their first statement.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

#: The paper's default run length (Fig 10/13) and ``explain``'s.
EMERGING_MS = 22_000.0
SHORT_MS = 8_000.0

BASELINES = ("GAE", "QEMU-KVM", "LDPlayer", "Bluestacks", "Trinity")
EXPLAIN_EMULATORS = ("vSoC", "GAE", "QEMU-KVM")


def _emerging_vsoc(seed: int) -> List[Any]:
    from repro.apps.catalog import emerging_app_params
    from repro.experiments.engine import specs_for_apps

    return specs_for_apps(
        emerging_app_params(seed, per_category=2), "vSoC",
        duration_ms=EMERGING_MS, seed=seed,
    )


def _emerging_baselines(seed: int) -> List[Any]:
    from repro.apps.catalog import emerging_app_params
    from repro.experiments.engine import specs_for_apps

    params = emerging_app_params(seed, per_category=1)
    return [
        spec
        for emulator in BASELINES
        for spec in specs_for_apps(
            params, emulator, duration_ms=EMERGING_MS, seed=seed
        )
    ]


def _popular_vsoc(seed: int) -> List[Any]:
    from repro.apps.catalog import popular_app_params
    from repro.experiments.engine import specs_for_apps

    return specs_for_apps(
        popular_app_params(seed), "vSoC", duration_ms=SHORT_MS, seed=seed
    )


def _explain_grid(seed: int) -> List[Any]:
    from repro.experiments.engine import RunSpec
    from repro.experiments.explain import APP_FACTORIES

    return [
        RunSpec(
            app_factory=factory,
            app_kwargs={},
            emulator=emulator,
            duration_ms=SHORT_MS,
            seed=seed,
            telemetry=True,
            attribution=True,
        )
        for _app, factory in sorted(APP_FACTORIES.items())
        for emulator in EXPLAIN_EMULATORS
    ]


#: Workload name -> seed -> ordered list of points.
WORKLOADS: Dict[str, Callable[[int], List[Any]]] = {
    "emerging-vsoc": _emerging_vsoc,
    "emerging-baselines": _emerging_baselines,
    "popular-vsoc": _popular_vsoc,
    "explain-grid": _explain_grid,
}


def budget_of(spec: Any, telemetry: Any) -> Optional[Any]:
    """The point's latency budget when the spec asked for attribution."""
    if not spec.attribution:
        return None
    from repro.obs.critical import budget_from_snapshot

    return budget_from_snapshot(telemetry)


def digest(result: Any, stats: Any, budget: Any = None) -> str:
    """A short hash of one point's outputs.

    Covers the ``AppResult`` fields the paper reports, the
    ``StatsSummary`` sample tuples and, for attributed points, the
    latency-budget totals. Floats are hashed through ``repr``, so any
    change in the last bit shows.
    """
    payload = {
        "ran": result.ran,
        "fail_reason": result.fail_reason,
        "fps": repr(result.fps),
        "presented": result.presented,
        "dropped": sorted(result.dropped.items()),
        "latency_avg": repr(result.latency_avg),
        "latency_p95": repr(result.latency_p95),
    }
    if stats is not None:
        payload["access"] = [repr(v) for v in stats.access_latency_samples]
        payload["coherence"] = [repr(v) for v in stats.coherence_samples]
        payload["slack"] = [repr(v) for v in stats.slack_samples]
    if budget is not None:
        payload["budget"] = [
            [category, device, repr(ms)]
            for (category, device), ms in sorted(budget.totals().items())
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def point_label(spec: Any) -> str:
    """``app@emulator``: unique within every workload."""
    return f"{spec.app_name}@{spec.emulator}"
