"""Collectors pipelines feed during a run.

* :class:`FpsCollector` — the ``dumpsys``-style frame counter (§5.3):
  counts presented frames and the reasons frames never made it.
* :class:`LatencyCollector` — motion-to-photon samples: presentation time
  minus the frame's birth (capture / arrival) time.
* :class:`SvmStats` — a run's Table 2 metrics (access latency, coherence
  cost, throughput) and slack samples, frozen from its :class:`TraceLog`.
* :class:`ResilienceStats` — fault/retry/degradation accounting from the
  ``fault.*``, ``retry.backoff`` and ``coherence.degrade/restore`` records
  a chaos run leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import mean, percentile
from repro.sim.tracing import TraceLog
from repro.units import SECOND


class FpsCollector:
    """Frame accounting for one app run.

    An observed run's ``frames.*`` counters are derived from these at
    capture (:func:`repro.obs.telemetry.derive_run_metrics`).
    """

    def __init__(self) -> None:
        self.presented = 0
        self.present_times: List[float] = []
        self.dropped: Dict[str, int] = {}

    def note_presented(self, now: float) -> None:
        self.presented += 1
        self.present_times.append(now)

    def note_dropped(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def fps(self, duration_ms: float, warmup_ms: float = 0.0) -> float:
        """Average presented frames per second over the run.

        ``warmup_ms`` excludes startup (cold caches, cold hypergraphs) the
        same way a measurement would skip the first seconds of dumpsys.
        """
        window = duration_ms - warmup_ms
        if window <= 0:
            return 0.0
        counted = sum(1 for t in self.present_times if t >= warmup_ms)
        return counted / (window / SECOND)

    def fps_timeline(self, duration_ms: float, bucket_ms: float = SECOND) -> List[float]:
        """Per-bucket FPS — used for the thermal-collapse timeline (§5.3)."""
        buckets = int(duration_ms // bucket_ms)
        counts = [0] * max(buckets, 1)
        for t in self.present_times:
            index = int(t // bucket_ms)
            if index < len(counts):
                counts[index] += 1
        return [c / (bucket_ms / SECOND) for c in counts]


class LatencyCollector:
    """Motion-to-photon latency samples."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def note(self, latency_ms: float) -> None:
        self.samples.append(latency_ms)

    @property
    def average(self) -> Optional[float]:
        return mean(self.samples) if self.samples else None

    def p95(self) -> Optional[float]:
        return percentile(self.samples, 95) if self.samples else None


@dataclass(frozen=True)
class SvmStats:
    """One run's Table 2 metrics, frozen from its trace log.

    Plain picklable data: engine workers ship it back inside their
    ``RunResult`` and the run cache stores it.
    """

    duration_ms: float
    access_latency_samples: Tuple[float, ...]
    access_bytes_total: int
    coherence_samples: Tuple[float, ...]
    slack_samples: Tuple[float, ...]

    @classmethod
    def from_trace(cls, trace: TraceLog, duration_ms: float) -> "SvmStats":
        return cls(
            duration_ms=duration_ms,
            access_latency_samples=tuple(
                float(v) for v in trace.values("svm.access_latency", "latency")
            ),
            access_bytes_total=sum(
                int(v) for v in trace.values("svm.access_latency", "bytes")
            ),
            coherence_samples=tuple(
                float(v) for v in trace.values("coherence.maintenance", "duration")
            ),
            slack_samples=tuple(float(v) for v in trace.values("svm.slack", "slack")),
        )

    def average_access_latency(self) -> Optional[float]:
        samples = self.access_latency_samples
        return mean(samples) if samples else None

    def average_coherence_cost(self) -> Optional[float]:
        samples = self.coherence_samples
        return mean(samples) if samples else None

    def throughput_bytes_per_ms(self) -> float:
        """Total SVM bytes accessed / duration (§5.2's definition, minus
        data wasted by prefetch failures — wasted copies are traced as
        maintenances, not accesses, so they are excluded by construction)."""
        if self.duration_ms <= 0:
            return 0.0
        return self.access_bytes_total / self.duration_ms


class ResilienceStats:
    """Fault, retry, and degradation accounting distilled from a trace."""

    def __init__(self, trace: TraceLog):
        self.trace = trace

    # -- injected faults -----------------------------------------------------
    def fault_counts(self) -> Dict[str, int]:
        """Histogram of every ``fault.*`` record kind in the trace."""
        return {
            kind: count
            for kind, count in self.trace.kind_counts().items()
            if kind.startswith("fault.")
        }

    # -- recovery machinery --------------------------------------------------
    @property
    def retries(self) -> int:
        return self.trace.count("retry.backoff")

    @property
    def prefetch_failures(self) -> int:
        return self.trace.count("prefetch.failed")

    @property
    def crashes(self) -> int:
        """Virtual-device crashes the recovery coordinator handled."""
        return self.trace.count("recovery.crash")

    @property
    def recoveries(self) -> int:
        """Crashed devices successfully re-admitted (``recovery.readmit``)."""
        return self.trace.count("recovery.readmit")

    @property
    def replayed_copies(self) -> int:
        return self.trace.count("recovery.replay_copy")

    @property
    def audit_violations(self) -> int:
        return self.trace.count("audit.violation")

    @property
    def degrades(self) -> int:
        return self.trace.count("coherence.degrade")

    @property
    def restores(self) -> int:
        return self.trace.count("coherence.restore")

    def degrade_events(self) -> List[tuple]:
        """(time, level) for each escalation, in time order."""
        return [(r.time, r["level"]) for r in self.trace.of_kind("coherence.degrade")]

    def restore_events(self) -> List[tuple]:
        """(time, level) for each restoration, in time order."""
        return [(r.time, r["level"]) for r in self.trace.of_kind("coherence.restore")]

    def time_in_degraded_mode(self, end_ms: float) -> float:
        """Total ms the coherence ladder sat above level 0.

        Walks the interleaved degrade/restore records; a run still degraded
        at ``end_ms`` accrues until then.
        """
        events = sorted(
            [(r.time, r["level"]) for r in self.trace.of_kind("coherence.degrade")]
            + [(r.time, r["level"]) for r in self.trace.of_kind("coherence.restore")]
        )
        total = 0.0
        entered: Optional[float] = None
        for time, level in events:
            if level > 0 and entered is None:
                entered = time
            elif level == 0 and entered is not None:
                total += time - entered
                entered = None
        if entered is not None:
            total += max(0.0, end_ms - entered)
        return total
