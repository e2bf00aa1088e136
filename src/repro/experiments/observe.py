"""``observe``: run one app with full observability and export artifacts.

This is the front door of :mod:`repro.obs` — one command that runs a
single (app, emulator) pair with tracing, metrics, and self-profiling
enabled, then writes:

* a Chrome ``trace_event`` / Perfetto JSON trace (open it in
  https://ui.perfetto.dev or ``chrome://tracing``) where every frame's
  journey — guest driver stage, transport kick, SVM access, coherence or
  prefetch copy, fences, host execution, presentation — is one connected
  flow of arrows;
* a metrics JSON with the registry's counters/gauges/histograms (prefetch
  mispredict rate, slack-estimate error, per-link bus utilization, frame
  accounting, coherence cost per path) plus the kernel self-profile
  attributing simulated time per device and subsystem (this JSON is the
  self-profile's only reader).

The run goes through the experiment runner's own path
(:func:`~repro.experiments.runner.build_rig` and
:func:`~repro.experiments.runner.drive`), so its metrics are the same
capture-time view a telemetry run records: every instrument is derived
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
from repro.obs import (
    Observability,
    connected_flows,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.sim import Simulator

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

    def __init__(self, result, trace_dict, metrics_dict, tracer, connected):
        self.result = result  # AppResult
        self.trace = trace_dict  # Chrome trace_event dict
        self.metrics = metrics_dict  # metrics + self-profile dict
        self.tracer = tracer
        self.connected = connected  # flow ids with a full causal chain


def run_observe(
    app: str = "ar",
    emulator: str = "vSoC",
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    machine_spec=HIGH_END_DESKTOP,
    include_tracelog: bool = False,
    reservoir: Optional[int] = None,
    max_spans: Optional[int] = None,
) -> ObserveResult:
    """Run one observed app; returns the trace + metrics dicts.

    ``emulator`` is matched the way ``explain`` matches it
    (:func:`~repro.experiments.explain.resolve_emulator`), so ``vsoc`` and
    ``qemu_kvm`` name vSoC and QEMU-KVM.
    ``include_tracelog`` digests the legacy :class:`TraceLog` records into
    the exported trace as instant events (one thread per record ``vdev``),
    so pre-observability instrumentation shows up alongside the spans.
    ``reservoir`` sets how many samples each histogram keeps for its
    percentiles (default 512).
    ``max_spans`` puts the tracer in bounded ring mode: only the newest N
    spans/instants survive and :attr:`Tracer.dropped_spans` counts the
    evictions (surfaced in the CLI summary and export metadata).
    """
    if app not in APP_FACTORIES:
        raise ValueError(f"unknown app {app!r}; choose from {sorted(APP_FACTORIES)}")
    emulator = resolve_emulator(emulator)

    obs = Observability(Simulator(), reservoir=reservoir, max_spans=max_spans)
    rig = build_rig(emulator, machine_spec, seed, obs=obs)
    (installed,), (result,), _ = drive(
        rig, [resolve_callable(APP_FACTORIES[app])()], duration_ms
    )
    if not installed:
        raise SystemExit(f"{app!r} cannot run on {emulator!r}: {result.fail_reason}")

    trace_dict = obs.export_trace(
        track_groups=rig.emulator.track_groups(),
        tracelog=rig.trace if include_tracelog else None,
    )
    metrics_dict = obs.export_metrics(extra={
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
        connected.update(connected_flows(obs.tracer, chain))
    return ObserveResult(result, trace_dict, metrics_dict, obs.tracer, sorted(connected))


def cmd_observe(
    app: str,
    emulator: str,
    duration_ms: float,
    export_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    seed: int = 0,
    include_tracelog: bool = False,
    reservoir: Optional[int] = None,
    max_spans: Optional[int] = None,
) -> int:
    """CLI body: run, validate, write artifacts, print a digest."""
    run = run_observe(
        app=app, emulator=emulator, duration_ms=duration_ms, seed=seed,
        include_tracelog=include_tracelog, reservoir=reservoir,
        max_spans=max_spans,
    )
    errors = validate_chrome_trace(run.trace)
    if errors:
        for error in errors:
            print(f"trace schema error: {error}")
        return 1

    tracer = run.tracer
    events = run.trace["traceEvents"]
    print(f"Observed {app!r} on {run.result.emulator!r} for {duration_ms:.0f} ms simulated:")
    print(f"  FPS: {run.result.fps:.1f} "
          f"(presented {run.result.presented}, dropped {sum(run.result.dropped.values())})")
    print(f"  spans: {len(tracer.spans)}  instants: {len(tracer.instants)}  "
          f"trace events: {len(events)}")
    if tracer.max_spans is not None:
        print(f"  span retention: ring (max_spans={tracer.max_spans})  "
              f"dropped spans: {tracer.dropped_spans}")
        if tracer.dropped_spans:
            print("  WARNING: the ring cap evicted spans — flows may be "
                  "truncated and latency attribution will refuse this trace")
    print(f"  frame flows: {len(tracer.flows())}  "
          f"fully connected (svm → coherence/prefetch → presented): {len(run.connected)}")

    profile = run.metrics.get("profile")
    if profile:
        device_ms = profile.get("device_ms", {})
        if device_ms:
            attribution = ", ".join(
                f"{dev}={ms:.0f}ms" for dev, ms in sorted(device_ms.items())
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
