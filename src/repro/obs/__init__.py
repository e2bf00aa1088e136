"""``repro.obs`` — observability for the vSoC stack.

One import point for the three pillars:

* **causal tracing** (:mod:`repro.obs.span`) — spans with parent links and
  a propagated per-frame *flow id*, so one frame's journey across guest
  driver, transport, SVM, coherence, prefetch, fences and presentation is
  a single connected trace;
* **metrics** (:mod:`repro.obs.registry`) — named counters/gauges/
  histograms with label sets and deterministic bounded sampling;
* **self-profiling** (:mod:`repro.obs.profile`) — kernel hooks attributing
  simulated time per device and subsystem;

plus the exporters (:mod:`repro.obs.export`) that turn all of it into a
Chrome ``trace_event`` / Perfetto JSON file and a metrics JSON file.

The :class:`Observability` context bundles one tracer + registry +
profiler so a single ``obs=`` handle threads through emulator factories
and components. The module-level :data:`DISABLED` instance is the default
everywhere: it hands out null tracer/registry, registers no kernel hooks,
and makes every instrumentation site a cheap no-op — results are identical
with observability on or off.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs.baseline import RegressionSentinel, SentinelReport
from repro.obs.critical import (
    BUDGET_CATEGORIES,
    BudgetCell,
    FrameBudget,
    LatencyBudget,
    PathStep,
    TruncatedTraceError,
    analyze_tracer,
    budget_from_snapshot,
)
from repro.obs.diff import align_frames, diff_budgets
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    read_event_log,
    validate_fleet_events,
)
from repro.obs.export import (
    chrome_trace,
    connected_flows,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.fleet import (
    FleetAggregator,
    TelemetrySnapshot,
    aggregate_results,
    validate_fleet_snapshot,
)
from repro.obs.profile import SelfProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
)
from repro.obs.slo import SloReport, SloSpec, evaluate_frames, fleet_burn
from repro.obs.span import NO_FLOW, NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "BUDGET_CATEGORIES",
    "BudgetCell",
    "EVENTS_SCHEMA",
    "EventLog",
    "FrameBudget",
    "LatencyBudget",
    "NO_FLOW",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "DISABLED",
    "FleetAggregator",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PathStep",
    "RegressionSentinel",
    "SelfProfiler",
    "SentinelReport",
    "SloReport",
    "SloSpec",
    "Span",
    "TelemetrySnapshot",
    "Tracer",
    "TruncatedTraceError",
    "align_frames",
    "analyze_tracer",
    "aggregate_results",
    "budget_from_snapshot",
    "chrome_trace",
    "connected_flows",
    "diff_budgets",
    "evaluate_frames",
    "fleet_burn",
    "metrics_json",
    "read_event_log",
    "validate_chrome_trace",
    "validate_fleet_events",
    "validate_fleet_snapshot",
    "write_chrome_trace",
    "write_metrics",
]


class Observability:
    """Tracer + metrics registry + self-profiler as one handle.

    Construct with a simulator to observe a run::

        obs = Observability(sim)
        emulator = make_vsoc(sim, machine, obs=obs)
        ...
        trace = obs.export_trace(track_groups=emulator.track_groups())

    Construct with no simulator (or use :data:`DISABLED`) for the inert
    variant components default to.
    """

    def __init__(self, sim=None, profile: bool = True,
                 reservoir: Optional[int] = None,
                 max_spans: Optional[int] = None):
        self.sim = sim
        enabled = sim is not None
        self.enabled = enabled
        self.tracer = (
            Tracer(sim, max_spans=max_spans) if enabled else NULL_TRACER
        )
        self.registry = (
            MetricsRegistry(reservoir=reservoir) if enabled else NULL_REGISTRY
        )
        self.profiler: Optional[SelfProfiler] = None
        if enabled and profile:
            self.profiler = SelfProfiler()
            sim.add_hook(self.profiler)

    def map_devices(self, vdev_to_device: Mapping[str, str]) -> None:
        """Teach the profiler the emulator's virtual→physical binding."""
        if self.profiler is not None:
            self.profiler.vdev_to_device.update(vdev_to_device)

    # -- export convenience --------------------------------------------------
    def export_trace(
        self,
        track_groups: Optional[Mapping[str, str]] = None,
        tracelog=None,
    ) -> Dict[str, Any]:
        """Chrome/Perfetto trace dict for this run (see :func:`chrome_trace`)."""
        end = self.sim.now if self.sim is not None else None
        return chrome_trace(
            self.tracer, track_groups=track_groups, tracelog=tracelog,
            end_time=end,
        )

    def export_metrics(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Metrics + self-profile dict for this run (see :func:`metrics_json`)."""
        profile = self.profiler.table() if self.profiler is not None else None
        return metrics_json(self.registry, profile=profile, extra=extra)


#: Shared inert instance — the default ``obs`` everywhere.
DISABLED = Observability()
