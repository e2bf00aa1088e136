"""The metrics registry: named instruments with label sets.

Three instrument kinds cover everything the stack reports:

* :class:`Counter` — monotonically increasing totals (bytes moved, frames
  presented, prefetch launches);
* :class:`Gauge` — last-write-wins level readings (mispredict rate, bus
  utilization);
* :class:`Histogram` — value distributions (slack-estimate error, copy
  durations) with exact count/sum/min/max and a bounded *reservoir* of
  samples for percentiles.

Everything is deterministic: the reservoir is a decimating sampler (when
full it drops every other retained sample and doubles its stride) rather
than a randomized one, so a rerun reproduces its metrics bit-for-bit.

Instruments are written once, at capture, by
:func:`repro.obs.telemetry.derive_run_metrics`; nothing writes to a
registry while a run is live.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.stats import percentile

#: Default cap on retained histogram samples.
DEFAULT_RESERVOIR = 512


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Base: a named instrument with one fixed label set."""

    kind = "abstract"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError  # pragma: no cover - interface


class Counter(Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "labels": dict(self.labels),
                "value": self.value}


class Gauge(Instrument):
    """A level reading."""

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "labels": dict(self.labels),
                "value": self.value}


class Histogram(Instrument):
    """A value distribution with exact moments and a sample reservoir."""

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir = _DecimatingSampler(DEFAULT_RESERVOIR)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._reservoir.offer(value)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Approximate percentile over the retained reservoir."""
        return percentile(self._reservoir.samples, q, default=None)

    def samples(self) -> List[float]:
        return list(self._reservoir.samples)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name, "type": self.kind, "labels": dict(self.labels),
            "count": self.count, "sum": self.sum, "min": self.min,
            "max": self.max, "mean": self.mean,
        }
        if self.count:
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
        return out


class _DecimatingSampler:
    """Bounded, deterministic sampler.

    Accepts every ``stride``-th offer; when the buffer fills, it drops
    every other retained sample and doubles the stride — a rerun retains
    exactly the same samples, unlike a randomized reservoir.
    """

    __slots__ = ("capacity", "stride", "_offers", "samples")

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("sampler capacity must be >= 2")
        self.capacity = capacity
        self.stride = 1
        self._offers = 0
        self.samples: List[Any] = []

    def offer(self, value: Any) -> None:
        self._offers += 1
        if (self._offers - 1) % self.stride != 0:
            return
        self.samples.append(value)
        if len(self.samples) >= self.capacity:
            self.samples = self.samples[::2]
            self.stride *= 2


class MetricsRegistry:
    """Keyed store of instruments; the one metrics sink of an observed run.

    ``counter("frames.dropped", reason="late")`` returns the one counter
    for that (name, labels) pair, creating it on first use — call sites
    never coordinate. Instruments of the same name must keep one kind.
    Every histogram keeps :data:`DEFAULT_RESERVOIR` samples.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Instrument] = {}

    # -- instrument accessors ----------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            clean = {k: str(v) for k, v in labels.items()}
            instrument = cls(name, clean)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r} already registered as {instrument.kind}, "
                f"requested {cls.kind}"
            )
        return instrument

    # -- introspection / export --------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> List[Instrument]:
        """All instruments, sorted by (name, labels) for stable export."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def find(self, name: str, **labels: Any) -> Optional[Instrument]:
        """Look up an instrument without creating it."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Convenience: current value of a counter/gauge, else None."""
        instrument = self.find(name, **labels)
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export of every instrument."""
        return {"metrics": [i.to_dict() for i in self.instruments()]}

