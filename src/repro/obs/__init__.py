"""``repro.obs`` — observability for the vSoC stack.

One import point for the two pillars:

* **causal tracing** (:mod:`repro.obs.span`) — spans with a propagated
  per-frame *flow id*, so one frame's journey across guest driver,
  transport, SVM, coherence, prefetch, fences and presentation is a
  single connected trace. Spans whose facts the trace log records are
  read from its rows at capture (:class:`~repro.obs.span.SpanView`),
  into the compact table attribution sweeps; the tracer records the
  rest live;
* **metrics** (:mod:`repro.obs.telemetry`) — counters, gauges and
  histograms derived once, after the clock stops, from the stores that
  already hold each fact, into one frozen
  :class:`~repro.obs.telemetry.TelemetrySnapshot`, including the
  simulated busy time of every physical device;

plus the exporters (:mod:`repro.obs.export`) that turn both into a
Chrome ``trace_event`` / Perfetto JSON file and a metrics JSON file.

An observed run's emulator carries a :class:`Tracer` on the run's own
simulator (``build_rig(observed=True)``); every other run carries
:data:`NULL_TRACER`, which makes every instrumentation site a cheap no-op.
An observed run registers no kernel hook: spans only read the clock, so
results are identical with observability on or off.
"""

from __future__ import annotations

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

