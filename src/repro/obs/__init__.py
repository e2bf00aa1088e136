"""``repro.obs`` — observability for the vSoC stack.

One import point for the two pillars:

* **causal tracing** (:mod:`repro.obs.span`) — spans with a propagated
  per-frame *flow id*, so one frame's journey across guest driver,
  transport, SVM, coherence, prefetch, fences and presentation is a
  single connected trace. Spans whose facts the trace log records are
  built from its rows at capture (:class:`~repro.obs.span.SpanView`);
  the tracer records the rest live;
* **metrics** (:mod:`repro.obs.registry`) — named counters/gauges/
  histograms with label sets and deterministic bounded sampling,
  including the simulated busy time of every physical device;

plus the exporters (:mod:`repro.obs.export`) that turn both into a
Chrome ``trace_event`` / Perfetto JSON file and a metrics JSON file.

The :class:`Observability` context bundles one tracer + registry so a
single ``obs=`` handle threads through emulator factories and components.
An observed run registers no kernel hook: spans read the clock, and the
registry is never written while a run is live —
:func:`repro.obs.telemetry.derive_run_metrics` fills it at capture. The
module-level :data:`DISABLED` instance is the default everywhere: it hands
out the null tracer and makes every instrumentation site a cheap no-op —
results are identical with observability on or off.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.critical import (
    BUDGET_CATEGORIES,
    BudgetCell,
    FrameBudget,
    LatencyBudget,
    PathStep,
    analyze_tracer,
    budget_from_snapshot,
)
from repro.obs.diff import align_frames, diff_budgets
from repro.obs.export import (
    chrome_trace,
    connected_flows,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SloReport, SloSpec, evaluate_frames
from repro.obs.span import NO_FLOW, NULL_SPAN, NULL_TRACER, Span, SpanView, Tracer
from repro.obs.telemetry import TelemetrySnapshot

__all__ = [
    "BUDGET_CATEGORIES",
    "BudgetCell",
    "FrameBudget",
    "LatencyBudget",
    "NO_FLOW",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PathStep",
    "SloReport",
    "SloSpec",
    "Span",
    "SpanView",
    "TelemetrySnapshot",
    "Tracer",
    "align_frames",
    "analyze_tracer",
    "budget_from_snapshot",
    "chrome_trace",
    "connected_flows",
    "diff_budgets",
    "evaluate_frames",
    "metrics_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
]


class Observability:
    """Tracer + metrics registry as one handle.

    Construct with a simulator to observe a run::

        obs = Observability(sim)
        emulator = make_vsoc(sim, machine, obs=obs)
        ...
        view = SpanView(obs.tracer, emulator.trace)
        trace = chrome_trace(view, emulator.track_groups(), end_time=sim.now)

    Construct with no simulator (or use :data:`DISABLED`) for the inert
    variant components default to.
    """

    def __init__(self, sim=None):
        self.sim = sim
        enabled = sim is not None
        self.enabled = enabled
        self.tracer = Tracer(sim) if enabled else NULL_TRACER
        self.registry = MetricsRegistry()

    # -- export convenience --------------------------------------------------
    def export_metrics(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Metrics dict for this run (see :func:`metrics_json`)."""
        return metrics_json(self.registry, extra=extra)


#: Shared inert instance — the default ``obs`` everywhere.
DISABLED = Observability()
