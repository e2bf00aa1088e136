"""Run telemetry: the capture-time metrics view and per-run snapshots.

* :func:`derive_run_metrics` — the capture-time metrics view: it builds an
  observed run's registry instruments from the stores that already hold
  each fact (the ``TraceLog``, the frame collectors, component counters).
  It is the only code that writes to a registry, so no component mirrors
  a fact into the registry while the run is live.
* :class:`TelemetrySnapshot` — a frozen, picklable digest of one run's
  registry (counter totals, final gauge values, histogram moments plus
  reservoirs) and, for attributed runs, its latency budget. Engine
  workers capture one per run and ship it back inside their
  ``RunResult``, so the snapshot rides the run cache and a warm-cache
  rerun replays telemetry bit-for-bit without simulating.

Everything here is pure data manipulation: no simulator, no wall clock,
no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.collectors import ResilienceStats
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

LabelKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# The capture-time metrics view
# ---------------------------------------------------------------------------

def derive_run_metrics(
    registry: MetricsRegistry, trace, emulator, fps_collectors: Sequence[Any]
) -> None:
    """Build an observed run's instruments once, at capture.

    Reads the run's :class:`~repro.sim.tracing.TraceLog` in record order
    (so each histogram's reservoir keeps the same samples a live mirror
    would), the apps' :class:`~repro.metrics.collectors.FpsCollector` (one
    per app; ``frames.*`` sum across them), and the emulator's own
    counters, after the clock stops.

    An event-driven instrument appears only once its source saw an event;
    the ``resilience.*`` / ``audit.violations_total`` summary always
    appears. ``prefetch.slack_error_ms`` reads the ``predicted`` field the
    SVM manager puts on a scored read's ``svm.slack`` record,
    ``bus.utilization`` is each link's busy time over the whole run, and
    ``device.busy_ms`` is each physical device's own op time. A device is
    charged only its ops: a coherence copy an executor waits on stays in
    ``coherence.duration_ms`` and ``bus.*``.
    """
    presented = sum(fps.presented for fps in fps_collectors)
    if presented:
        registry.counter("frames.presented").inc(presented)
    for fps in fps_collectors:
        for reason, count in fps.dropped.items():
            registry.counter("frames.dropped", reason=reason).inc(count)
    for name, label, record_kind, field_name in (
        ("svm.access_latency_ms", "vdev", "svm.access_latency", "latency"),
        ("coherence.duration_ms", "path", "coherence.maintenance", "duration"),
    ):
        per_label: Dict[Any, Histogram] = {}
        samples = trace.values(record_kind, field_name)
        for key, sample in zip(trace.values(record_kind, label), samples):
            histogram = per_label.get(key)
            if histogram is None:
                histogram = per_label[key] = registry.histogram(name, **{label: key})
            histogram.observe(sample)
    slack_error = None
    for record in trace.of_kind("svm.slack"):
        predicted = record.fields.get("predicted")
        if predicted is None:
            continue
        if slack_error is None:
            slack_error = registry.histogram("prefetch.slack_error_ms")
        slack_error.observe(abs(predicted - record.fields["slack"]))

    transport = emulator.transport
    if transport.kicks:
        registry.counter("transport.kicks").inc(transport.kicks)
        registry.counter("transport.commands").inc(transport.commands)
    engine = emulator.engine
    if engine is not None:
        stats = engine.stats
        if stats.launched:
            registry.counter("prefetch.launched").inc(stats.launched)
        if stats.predictions:
            registry.gauge("prefetch.mispredict_rate").set(
                stats.misses / stats.predictions
            )
        if engine.suspension_time_ms:
            registry.counter("prefetch.suspension_time_ms").inc(
                engine.suspension_time_ms
            )
    now = emulator.sim.now
    for bus in emulator.metered_buses():
        if bus.transfer_count:
            registry.counter("bus.bytes_moved", link=bus.name).inc(bus.bytes_moved)
            registry.counter("bus.transfers", link=bus.name).inc(bus.transfer_count)
            registry.gauge("bus.utilization", link=bus.name).set(
                bus.busy_time / now if now > 0 else 0.0
            )
    for name, device in emulator.machine.devices.items():
        if device.busy_time:
            registry.counter("device.busy_ms", device=name).inc(device.busy_time)

    resilience = ResilienceStats(trace)
    for kind, count in sorted(resilience.fault_counts().items()):
        registry.counter("resilience.faults", kind=kind).inc(count)
    registry.counter("resilience.retries").inc(resilience.retries)
    registry.counter("resilience.prefetch_failures").inc(resilience.prefetch_failures)
    registry.counter("resilience.degrades").inc(resilience.degrades)
    registry.counter("resilience.restores").inc(resilience.restores)
    registry.counter("resilience.crashes").inc(resilience.crashes)
    registry.counter("resilience.recoveries").inc(resilience.recoveries)
    registry.counter("resilience.replayed_copies").inc(resilience.replayed_copies)
    registry.counter("audit.violations_total").inc(resilience.audit_violations)
    for record in trace.of_kind("audit.violation"):
        registry.counter("audit.violations", invariant=record["invariant"]).inc()


# ---------------------------------------------------------------------------
# Snapshot leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterSample:
    """One counter's final value at capture time."""

    name: str
    labels: LabelKey
    value: float


@dataclass(frozen=True)
class GaugeSample:
    """One gauge's final value at capture time."""

    name: str
    labels: LabelKey
    value: Optional[float]


@dataclass(frozen=True)
class HistogramSample:
    """One histogram's exact moments plus its retained reservoir."""

    name: str
    labels: LabelKey
    count: int
    sum: float
    min: Optional[float]
    max: Optional[float]
    samples: Tuple[float, ...] = ()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Everything one observed run reports back from its worker.

    ``meta`` is a sorted tuple of string pairs (emulator, app, seed,
    duration, fps, ...) identifying the run. All fields are plain
    immutable data, so snapshots pickle across the engine's process pool
    and hash/compare structurally.
    """

    meta: LabelKey = ()
    counters: Tuple[CounterSample, ...] = ()
    gauges: Tuple[GaugeSample, ...] = ()
    histograms: Tuple[HistogramSample, ...] = ()
    #: Optional per-frame latency attribution (a frozen
    #: :class:`~repro.obs.critical.LatencyBudget`).  Rides the run cache
    #: like every other field, so a warm-cache rerun explains its frames
    #: without re-simulating.
    attribution: Optional[Any] = None

    # -- capture -----------------------------------------------------------
    @classmethod
    def capture(
        cls,
        registry: MetricsRegistry,
        meta: Optional[Mapping[str, Any]] = None,
        attribution: Optional[Any] = None,
    ) -> "TelemetrySnapshot":
        """Freeze a run's registry (and attribution) into a snapshot."""
        counters: List[CounterSample] = []
        gauges: List[GaugeSample] = []
        histograms: List[HistogramSample] = []
        for inst in registry.instruments():
            labels = _labels_key(inst.labels)
            if isinstance(inst, Counter):
                counters.append(CounterSample(inst.name, labels, float(inst.value)))
            elif isinstance(inst, Gauge):
                gauges.append(GaugeSample(
                    inst.name, labels,
                    None if inst.value is None else float(inst.value),
                ))
            elif isinstance(inst, Histogram):
                histograms.append(HistogramSample(
                    inst.name, labels, inst.count, float(inst.sum),
                    inst.min, inst.max,
                    tuple(float(v) for v in inst.samples()),
                ))
        return cls(
            meta=_labels_key(meta or {}),
            counters=tuple(counters),
            gauges=tuple(gauges),
            histograms=tuple(histograms),
            attribution=attribution,
        )

    # -- identity ----------------------------------------------------------
    @property
    def meta_dict(self) -> Dict[str, str]:
        return dict(self.meta)

    # -- export ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form of this snapshot."""
        out: Dict[str, Any] = {
            "meta": self.meta_dict,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self.gauges
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), "count": h.count,
                 "sum": h.sum, "min": h.min, "max": h.max,
                 "samples": list(h.samples)}
                for h in self.histograms
            ],
        }
        if self.attribution is not None:
            out["attribution"] = self.attribution.to_dict()
        return out
