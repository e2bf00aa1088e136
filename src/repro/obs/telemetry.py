"""Run telemetry: the capture-time metrics view and per-run snapshots.

* :func:`derive_run_metrics` — the capture-time metrics view: it builds an
  observed run's counters, gauges and histograms once, after the clock
  stops, from the stores that already hold each fact (the ``TraceLog``,
  the frame collectors, component counters), and returns them as one
  frozen :class:`TelemetrySnapshot`. No component mirrors a fact into a
  metrics store while the run is live.
* :class:`TelemetrySnapshot` — a frozen, picklable digest of one run's
  metrics (counter totals, final gauge values, histogram moments plus
  retained samples) and, for attributed runs, its latency budget. Engine
  workers ship one per run back inside their ``RunResult``, so the
  snapshot rides the run cache and a warm-cache rerun replays telemetry
  bit-for-bit without simulating.

Everything here is pure data manipulation: no simulator, no wall clock,
no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.collectors import ResilienceStats

LabelKey = Tuple[Tuple[str, str], ...]

#: Cap on the samples a histogram retains for its percentiles.
RESERVOIR = 512


def labels_key(labels: Mapping[str, Any]) -> LabelKey:
    """``labels`` as sorted string pairs: a sample's labels, a run's meta."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def retained_samples(values: Sequence[float]) -> Tuple[float, ...]:
    """The samples a histogram keeps: ``values[::s]``, fewer than
    :data:`RESERVOIR`.

    ``s`` is the smallest power of two with ``ceil(n / s) < RESERVOIR``:
    exactly what a streaming sampler keeps that accepts every
    ``stride``-th value and, whenever it holds :data:`RESERVOIR`, drops
    every other one and doubles its stride. Deterministic, so a rerun
    reproduces its percentiles bit-for-bit.
    """
    stride = 1
    while -(-len(values) // stride) >= RESERVOIR:
        stride *= 2
    return tuple(float(v) for v in values[::stride])


# ---------------------------------------------------------------------------
# The capture-time metrics view
# ---------------------------------------------------------------------------

def derive_run_metrics(
    trace, emulator, fps_collectors: Sequence[Any]
) -> TelemetrySnapshot:
    """Build an observed run's metrics once, at capture.

    Reads the run's :class:`~repro.sim.tracing.TraceLog` in record order
    (so each histogram keeps its samples in the order they happened), the
    apps' :class:`~repro.metrics.collectors.FpsCollector` (one per app;
    ``frames.*`` sum across them), and the emulator's own counters, after
    the clock stops. Each kind's samples are sorted by (name, labels); the
    snapshot carries no ``meta`` or attribution (the caller adds them).

    An event-driven metric appears only once its source saw an event;
    the ``resilience.*`` / ``audit.violations_total`` summary always
    appears. ``prefetch.slack_error_ms`` reads the ``predicted`` field the
    SVM manager puts on a scored read's ``svm.slack`` record,
    ``bus.utilization`` is each link's busy time over the whole run, and
    ``device.busy_ms`` is each physical device's own op time. A device is
    charged only its ops: a coherence copy an executor waits on stays in
    ``coherence.duration_ms`` and ``bus.*``.
    """
    counters: Dict[Tuple[str, LabelKey], float] = {}
    gauges: List[GaugeSample] = []
    histograms: List[HistogramSample] = []

    def count(name: str, amount: float, **labels: Any) -> None:
        key = (name, labels_key(labels))
        counters[key] = counters.get(key, 0.0) + amount

    def gauge(name: str, value: float, **labels: Any) -> None:
        gauges.append(GaugeSample(name, labels_key(labels), float(value)))

    def histogram(name: str, values: List[float], **labels: Any) -> None:
        # A running total in record order: from Python 3.12 ``sum``
        # compensates float rounding, which would move the last bits.
        total = 0.0
        for value in values:
            total += value
        histograms.append(HistogramSample(
            name, labels_key(labels), len(values), total,
            min(values), max(values), retained_samples(values),
        ))

    presented = sum(fps.presented for fps in fps_collectors)
    if presented:
        count("frames.presented", presented)
    for fps in fps_collectors:
        for reason, dropped in fps.dropped.items():
            count("frames.dropped", dropped, reason=reason)
    for name, label, record_kind, field_name in (
        ("svm.access_latency_ms", "vdev", "svm.access_latency", "latency"),
        ("coherence.duration_ms", "path", "coherence.maintenance", "duration"),
    ):
        per_label: Dict[Any, List[float]] = {}
        samples = trace.values(record_kind, field_name)
        for key, sample in zip(trace.values(record_kind, label), samples):
            per_label.setdefault(key, []).append(sample)
        for key, values in per_label.items():
            histogram(name, values, **{label: key})
    slack_errors = []
    for record in trace.of_kind("svm.slack"):
        predicted = record.fields.get("predicted")
        if predicted is not None:
            slack_errors.append(abs(predicted - record.fields["slack"]))
    if slack_errors:
        histogram("prefetch.slack_error_ms", slack_errors)

    transport = emulator.transport
    if transport.kicks:
        count("transport.kicks", transport.kicks)
        count("transport.commands", transport.commands)
    engine = emulator.engine
    if engine is not None:
        stats = engine.stats
        if stats.launched:
            count("prefetch.launched", stats.launched)
        if stats.predictions:
            gauge("prefetch.mispredict_rate", stats.misses / stats.predictions)
        if engine.suspension_time_ms:
            count("prefetch.suspension_time_ms", engine.suspension_time_ms)
    now = emulator.sim.now
    for bus in emulator.metered_buses():
        if bus.transfer_count:
            count("bus.bytes_moved", bus.bytes_moved, link=bus.name)
            count("bus.transfers", bus.transfer_count, link=bus.name)
            gauge("bus.utilization", bus.busy_time / now if now > 0 else 0.0,
                  link=bus.name)
    for name, device in emulator.machine.devices.items():
        if device.busy_time:
            count("device.busy_ms", device.busy_time, device=name)

    resilience = ResilienceStats(trace)
    for kind, faults in sorted(resilience.fault_counts().items()):
        count("resilience.faults", faults, kind=kind)
    count("resilience.retries", resilience.retries)
    count("resilience.prefetch_failures", resilience.prefetch_failures)
    count("resilience.degrades", resilience.degrades)
    count("resilience.restores", resilience.restores)
    count("resilience.crashes", resilience.crashes)
    count("resilience.recoveries", resilience.recoveries)
    count("resilience.replayed_copies", resilience.replayed_copies)
    count("audit.violations_total", resilience.audit_violations)
    for record in trace.of_kind("audit.violation"):
        count("audit.violations", 1, invariant=record["invariant"])

    by_key = attrgetter("name", "labels")
    return TelemetrySnapshot(
        counters=tuple(
            CounterSample(name, labels, value)
            for (name, labels), value in sorted(counters.items())
        ),
        gauges=tuple(sorted(gauges, key=by_key)),
        histograms=tuple(sorted(histograms, key=by_key)),
    )


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
    """One histogram's exact moments plus its retained samples
    (:func:`retained_samples`)."""

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
