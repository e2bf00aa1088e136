"""``observe``: run one app with full observability and export artifacts.

This is the front door of :mod:`repro.obs` — one command that runs a
single (app, emulator) pair with tracing and metrics enabled, then
writes:

* a Chrome ``trace_event`` / Perfetto JSON trace (open it in
  https://ui.perfetto.dev or ``chrome://tracing``) where every frame's
  journey — guest driver stage, transport kick, SVM access, coherence or
  prefetch copy, fences, host execution, presentation — is one connected
  flow of arrows;
* a metrics JSON with the run's counters/gauges/histograms (prefetch
  mispredict rate, slack-estimate error, per-link bus utilization, frame
  accounting, coherence cost per path, simulated busy time per physical
  device).

The run goes through the experiment runner's own path
(:func:`~repro.experiments.runner.build_rig` and
:func:`~repro.experiments.runner.drive`), and its metrics are the same
capture-time view a telemetry run records
(:func:`~repro.obs.telemetry.derive_run_metrics`): every metric is derived
after the clock stops, from the trace log and component counters.

The run itself is the same deterministic simulation the experiment
commands use: observability only *reads* the clock, so FPS and every other
number matches a run with observability off, bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.catalog import resolve_callable
from repro.experiments.explain import APP_FACTORIES, resolve_emulator
from repro.experiments.runner import build_rig, drive
from repro.hw.machine import HIGH_END_DESKTOP
from repro.obs.export import (
    chrome_trace,
    connected_flows,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.span import SpanView
from repro.obs.telemetry import derive_run_metrics

DEFAULT_DURATION_MS = 8_000.0

#: The causal chain the exported trace must contain for at least one
#: frame (SVM access → coherence maintenance or prefetch → presentation).
#: Names match by equality or prefix, so "prefetch" covers
#: ``prefetch.copy`` as well as the suspend/launch instants.
FLOW_CHAINS = (
    ("svm.begin_access", "coherence.copy", "frame.presented"),
    ("svm.begin_access", "prefetch", "frame.presented"),
)


class ObserveResult:
    """Everything one observed run produced."""

    def __init__(self, result, trace_dict, metrics_dict, spans, connected):
        self.result = result  # AppResult
        self.trace = trace_dict  # Chrome trace_event dict
        self.metrics = metrics_dict  # every metric plus the run's facts
        self.spans = spans  # the run's SpanView
        self.connected = connected  # flow ids with a full causal chain


def run_observe(
    app: str = "ar",
    emulator: str = "vSoC",
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    machine_spec=HIGH_END_DESKTOP,
) -> ObserveResult:
    """Run one observed app; returns the trace + metrics dicts.

    ``emulator`` is matched the way ``explain`` matches it
    (:func:`~repro.experiments.explain.resolve_emulator`), so ``vsoc`` and
    ``qemu_kvm`` name vSoC and QEMU-KVM.
    """
    if app not in APP_FACTORIES:
        raise ValueError(f"unknown app {app!r}; choose from {sorted(APP_FACTORIES)}")
    emulator = resolve_emulator(emulator)

    rig = build_rig(emulator, machine_spec, seed, observed=True)
    observed_app = resolve_callable(APP_FACTORIES[app])()
    (installed,), (result,), _ = drive(rig, [observed_app], duration_ms)
    if not installed:
        raise SystemExit(f"{app!r} cannot run on {emulator!r}: {result.fail_reason}")

    spans = SpanView(rig.tracer, rig.trace)
    trace_dict = chrome_trace(
        spans,
        track_groups=rig.emulator.track_groups(),
        end_time=rig.sim.now,
    )
    snapshot = derive_run_metrics(rig.trace, rig.emulator, [observed_app.fps])
    metrics_dict = metrics_json(snapshot, extra={
        "app": result.app,
        "category": result.category,
        "emulator": emulator,
        "duration_ms": duration_ms,
        "fps": result.fps,
        "presented": result.presented,
        "dropped": dict(result.dropped),
    })

    connected: set = set()
    for chain in FLOW_CHAINS:
        connected.update(connected_flows(spans, chain))
    return ObserveResult(result, trace_dict, metrics_dict, spans, sorted(connected))


def cmd_observe(
    app: str,
    emulator: str,
    duration_ms: float,
    export_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    seed: int = 0,
) -> int:
    """CLI body: run, validate, write artifacts, print a digest."""
    run = run_observe(app=app, emulator=emulator, duration_ms=duration_ms, seed=seed)
    errors = validate_chrome_trace(run.trace)
    if errors:
        for error in errors:
            print(f"trace schema error: {error}")
        return 1

    spans = run.spans
    events = run.trace["traceEvents"]
    print(f"Observed {app!r} on {run.result.emulator!r} for {duration_ms:.0f} ms simulated:")
    print(f"  FPS: {run.result.fps:.1f} "
          f"(presented {run.result.presented}, dropped {sum(run.result.dropped.values())})")
    print(f"  spans: {len(spans.spans)}  instants: {len(spans.instants)}  "
          f"trace events: {len(events)}")
    print(f"  frame flows: {len(spans.flows())}  "
          f"fully connected (svm → coherence/prefetch → presented): {len(run.connected)}")

    device_ms = [
        m for m in run.metrics["metrics"] if m["name"] == "device.busy_ms"
    ]
    if device_ms:
        attribution = ", ".join(
            f"{m['labels']['device']}={m['value']:.0f}ms" for m in device_ms
        )
        print(f"  simulated time per device: {attribution}")
    utilizations = [
        m for m in run.metrics["metrics"] if m["name"] == "bus.utilization"
    ]
    for metric in utilizations:
        link = metric["labels"].get("link", "?")
        print(f"  bus {link}: {100 * metric['value']:.1f}% utilized")
    mispredict = [
        m for m in run.metrics["metrics"] if m["name"] == "prefetch.mispredict_rate"
    ]
    if mispredict:
        print(f"  prefetch mispredict rate: {100 * mispredict[0]['value']:.1f}%")

    if export_path:
        write_chrome_trace(export_path, run.trace)
        print(f"  wrote trace: {export_path}")
    if metrics_path:
        write_metrics(metrics_path, run.metrics)
        print(f"  wrote metrics: {metrics_path}")
    return 0
