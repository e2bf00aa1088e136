"""Frame-deadline SLOs with windowed burn-rate accounting.

An :class:`SloSpec` states the promise ("99% of frames present within
50 ms"); :func:`evaluate_frames` grades one run's per-frame latencies
against it.  Burn rate is the SRE convention: the rate at which a window
consumes the error budget, normalized so 1.0 means "exactly on budget" —
a window with miss rate ``m`` against target ``t`` burns ``m / (1 - t)``.
Tumbling (non-overlapping) windows keep the accounting deterministic and
O(frames).

Pure data → data; no clocks, no randomness, nothing to perturb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default present-latency deadline, in ms.  Frame latency is measured
#: birth → present and healthy pipelines take ~2–3 vsync periods, so the
#: default promises three 60 Hz periods.
DEFAULT_DEADLINE_MS = 50.0

#: Default SLO target: fraction of frames that must meet the deadline.
DEFAULT_TARGET = 0.99

#: Default burn-rate window, in frames (~1 s of 60 Hz playback).
DEFAULT_WINDOW_FRAMES = 60


@dataclass(frozen=True)
class SloSpec:
    """One frame-deadline service-level objective."""

    name: str = "frame-deadline"
    deadline_ms: float = DEFAULT_DEADLINE_MS
    target: float = DEFAULT_TARGET
    window_frames: int = DEFAULT_WINDOW_FRAMES

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if not (math.isfinite(self.deadline_ms) and self.deadline_ms > 0):
            raise ValueError(
                f"deadline_ms must be finite and > 0, got {self.deadline_ms}"
            )
        if self.window_frames < 1:
            raise ValueError(
                f"window_frames must be >= 1, got {self.window_frames}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "deadline_ms": self.deadline_ms,
            "target": self.target,
            "window_frames": self.window_frames,
        }


@dataclass(frozen=True)
class SloReport:
    """One latency series graded against one :class:`SloSpec`."""

    spec: SloSpec
    frames: int
    misses: int
    #: Per-window burn rates, in frame order (last window may be partial).
    burn_rates: Tuple[float, ...] = ()

    @property
    def miss_rate(self) -> float:
        return self.misses / self.frames if self.frames else 0.0

    @property
    def compliance(self) -> float:
        return 1.0 - self.miss_rate

    @property
    def met(self) -> bool:
        return self.compliance >= self.spec.target

    @property
    def overall_burn(self) -> float:
        """Error budget consumed over the whole run, normalized to 1.0."""
        return self.miss_rate / (1.0 - self.spec.target)

    @property
    def peak_burn(self) -> float:
        return max(self.burn_rates, default=0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "frames": self.frames,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "compliance": self.compliance,
            "met": self.met,
            "overall_burn": self.overall_burn,
            "peak_burn": self.peak_burn,
            "burn_rates": list(self.burn_rates),
        }


def evaluate_frames(
    latencies: Sequence[float], spec: Optional[SloSpec] = None
) -> SloReport:
    """Grade per-frame latencies (ms, frame order) against ``spec``."""
    spec = spec if spec is not None else SloSpec()
    misses = 0
    burns: List[float] = []
    window_frames = 0
    window_misses = 0
    budget = 1.0 - spec.target
    for latency in latencies:
        miss = latency > spec.deadline_ms
        misses += int(miss)
        window_frames += 1
        window_misses += int(miss)
        if window_frames == spec.window_frames:
            burns.append((window_misses / window_frames) / budget)
            window_frames = window_misses = 0
    if window_frames:
        burns.append((window_misses / window_frames) / budget)
    return SloReport(
        spec=spec,
        frames=len(latencies),
        misses=misses,
        burn_rates=tuple(burns),
    )
