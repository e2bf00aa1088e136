"""``dashboard``: telemetry sweep → deterministic aggregate → one HTML file.

The command runs the standard telemetry grid — every emulator × two
representative apps (UHD video and AR, the paper's most demanding
categories) — through the parallel engine with per-run telemetry capture
on, folds the snapshots with
:class:`repro.obs.telemetry.TelemetryAggregator`, and renders
:mod:`repro.obs.dashboard`'s single-file report::

    python -m repro.experiments dashboard --out report.html \
        [--snapshot telemetry.json] [--history BENCH_history.jsonl] \
        [--quick] [--jobs N]

Because snapshots ride the run cache, a warm rerun regenerates the exact
same dashboard without simulating anything; because the aggregator is
order-independent, ``--jobs 4`` and serial runs render byte-identical
aggregates.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.experiments.engine import EngineReport, RunSpec, run_many

#: The telemetry grid: every emulator × the two heaviest app categories.
TELEMETRY_EMULATORS = ("vSoC", "GAE", "QEMU-KVM")
TELEMETRY_APPS = (
    ("video", "repro.apps.video:UhdVideoApp"),
    ("ar", "repro.apps.ar:ArApp"),
)

DEFAULT_DURATION_MS = 6_000.0
QUICK_DURATION_MS = 2_000.0


def telemetry_specs(duration_ms: float = DEFAULT_DURATION_MS,
                seed: int = 0) -> List[RunSpec]:
    """The dashboard's run grid, telemetry + latency attribution on.

    Attribution adds per-(category × device) budget totals as
    ``budget.ms`` counters to each snapshot, which the aggregator rolls
    up like any other counter — the dashboard's per-cell budget bars
    come for free from the ordinary aggregation pipeline.
    """
    return [
        RunSpec(
            app_factory=factory,
            app_kwargs={},
            emulator=emulator,
            duration_ms=duration_ms,
            seed=seed,
            telemetry=True,
            attribution=True,
        )
        for emulator in TELEMETRY_EMULATORS
        for _label, factory in TELEMETRY_APPS
    ]


def run_telemetry_grid(duration_ms: float = DEFAULT_DURATION_MS,
                       jobs: Optional[int] = None, cache=True,
                       seed: int = 0) -> EngineReport:
    """Run the telemetry grid through the engine."""
    return run_many(telemetry_specs(duration_ms, seed), jobs=jobs, cache=cache)


def cmd_dashboard(
    out_path: str = "report.html",
    snapshot_path: Optional[str] = None,
    history_path: Optional[str] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    cache=True,
    seed: int = 0,
) -> int:
    """CLI body: sweep, aggregate, validate, render, write."""
    from repro.obs.baseline import DEFAULT_HISTORY_PATH, RegressionSentinel
    from repro.obs.dashboard import render_dashboard, write_dashboard
    from repro.obs.telemetry import aggregate_results, validate_telemetry_aggregate

    duration = QUICK_DURATION_MS if quick else DEFAULT_DURATION_MS
    report = run_telemetry_grid(duration_ms=duration, jobs=jobs, cache=cache,
                                seed=seed)
    observed = sum(1 for r in report.results if r.telemetry is not None)
    print(f"Telemetry sweep: {len(report.results)} runs "
          f"({report.cache_hits} cached, {report.executed} executed, "
          f"jobs {report.jobs} requested / {report.effective_jobs} effective, "
          f"{report.wall_s:.2f}s wall), {observed} with telemetry")

    aggregate: Dict[str, Any] = aggregate_results(report.results)
    problems = validate_telemetry_aggregate(aggregate)
    for problem in problems:
        print(f"SNAPSHOT PROBLEM: {problem}")

    sentinel = RegressionSentinel(path=history_path or DEFAULT_HISTORY_PATH)
    history = sentinel.load()
    sentinel_dict = None
    if history:
        # Display-only: judge the newest record against the full history's
        # baselines (which include it — a pure trend readout, not a gate).
        sentinel_dict = sentinel.check(history[-1]["metrics"]).to_dict()

    html_text = render_dashboard(aggregate, history=history,
                                 sentinel=sentinel_dict)
    write_dashboard(out_path, html_text)
    size = len(html_text.encode("utf-8"))
    print(f"Wrote {out_path} ({size / 1024:.0f} KiB, single file, "
          f"{len(history)} history records)")

    if snapshot_path:
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(aggregate, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"Wrote {snapshot_path} (canonical telemetry aggregate)")
    return 1 if problems else 0
