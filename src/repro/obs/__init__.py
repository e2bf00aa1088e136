"""``repro.obs`` — observability for the vSoC stack.

Two pillars:

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

plus **attribution** (:mod:`repro.obs.critical`), which folds a run's
spans into a per-frame latency budget.

The package re-exports what a run uses: the tracer, :class:`SpanView`,
:class:`TelemetrySnapshot` and the attribution names. The exporters
(:mod:`repro.obs.export`: a Chrome ``trace_event`` / Perfetto JSON file
and a metrics JSON file), the differential triage (:mod:`repro.obs.diff`)
and the frame-deadline SLO (:mod:`repro.obs.slo`) run after a run, in
the ``observe`` and ``explain`` commands; import them from their own
modules, so a worker that only runs specs never loads them.

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
    "Span",
    "SpanView",
    "TelemetrySnapshot",
    "Tracer",
    "analyze_tracer",
    "budget_from_snapshot",
]
