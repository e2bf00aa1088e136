"""Graceful-degradation ladder for coherence maintenance.

The paper's §3.3 suspension rule reacts to *prediction* failures; this
module generalizes it to *transport* failures. When coherence copies keep
failing (faulty DMA, saturated links, wedged devices), the stack steps down
a ladder of progressively cheaper-to-trust strategies:

* level 0 — ``prefetched``: the optimized path; the prefetch engine hides
  coherence maintenance behind predicted accesses.
* level 1 — ``on-demand``: prefetch is disabled; every access pays a
  synchronous unified-SVM copy (the paper's non-prefetch baseline).
* level 2 — ``guest-roundtrip``: even unified copies are abandoned; data
  moves through guest memory with the legacy 4-copy round-trip, the most
  conservative path §2.3 measures.

A :class:`DegradationController` owns the current level. Copy paths report
outcomes via :meth:`note_success` / :meth:`note_failure`; after
:data:`FAILURE_THRESHOLD` consecutive failures the ladder escalates (trace
kind ``coherence.degrade``), and after :data:`REPROBE_AFTER_MS` of quiet it
offers the next-better level as a probe — one success there restores it
(trace kind ``coherence.restore``).
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Simulator
from repro.sim.tracing import TraceLog

LEVEL_PREFETCHED = 0
LEVEL_ON_DEMAND = 1
LEVEL_GUEST_ROUNDTRIP = 2

LEVEL_NAMES = {
    LEVEL_PREFETCHED: "prefetched",
    LEVEL_ON_DEMAND: "on-demand",
    LEVEL_GUEST_ROUNDTRIP: "guest-roundtrip",
}

#: Consecutive copy failures (after retries) before escalating one level —
#: mirrors the paper's 3-misprediction suspension rule.
FAILURE_THRESHOLD = 3
#: Quiet time after the last failure before the next-better level is
#: offered as a probe via :meth:`DegradationController.plan_level`.
REPROBE_AFTER_MS = 250.0


class DegradationController:
    """Tracks the coherence degradation level and when to re-probe."""

    def __init__(self, sim: Simulator, trace: Optional[TraceLog] = None):
        self._sim = sim
        self.trace = trace
        self.level = LEVEL_PREFETCHED
        self._consecutive_failures = 0
        self._degraded_at: Optional[float] = None
        self.degrades = 0
        self.restores = 0
        self.failures_total = 0

    # -- planning -----------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self.level > LEVEL_PREFETCHED

    def plan_level(self) -> int:
        """Level the next operation should attempt.

        Usually the current level; once :data:`REPROBE_AFTER_MS` has passed
        since the last failure, the next-better level instead — a probe.
        Success at a probe level restores it, failure pushes the re-probe
        clock forward without escalating further.
        """
        if self.level > LEVEL_PREFETCHED and self._degraded_at is not None:
            if self._sim.now - self._degraded_at >= REPROBE_AFTER_MS:
                return self.level - 1
        return self.level

    # -- outcome reporting --------------------------------------------------
    def note_success(self, attempted_level: int) -> None:
        """A copy at ``attempted_level`` succeeded; restore if it was a probe."""
        self._consecutive_failures = 0
        if attempted_level < self.level:
            old = self.level
            self.level = attempted_level
            self.restores += 1
            self._degraded_at = self._sim.now if self.degraded else None
            if self.trace is not None:
                self.trace.record(
                    self._sim.now,
                    "coherence.restore",
                    level=self.level,
                    from_level=old,
                    mode=LEVEL_NAMES[self.level],
                )

    def note_failure(self, attempted_level: int, reason: str = "") -> None:
        """A copy at ``attempted_level`` failed even after retries."""
        self.failures_total += 1
        if attempted_level < self.level:
            # A failed probe: stay degraded, wait another re-probe interval.
            self._degraded_at = self._sim.now
            return
        self._consecutive_failures += 1
        if (
            self._consecutive_failures >= FAILURE_THRESHOLD
            and self.level < LEVEL_GUEST_ROUNDTRIP
        ):
            old = self.level
            self.level += 1
            self.degrades += 1
            self._consecutive_failures = 0
            self._degraded_at = self._sim.now
            if self.trace is not None:
                self.trace.record(
                    self._sim.now,
                    "coherence.degrade",
                    level=self.level,
                    from_level=old,
                    mode=LEVEL_NAMES[self.level],
                    reason=reason,
                )
        elif self.level > LEVEL_PREFETCHED:
            self._degraded_at = self._sim.now

    # -- checkpointing -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Deterministic, JSON-able image of the ladder state."""
        return {
            "level": self.level,
            "consecutive_failures": self._consecutive_failures,
            "degraded_at": self._degraded_at,
            "degrades": self.degrades,
            "restores": self.restores,
            "failures_total": self.failures_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DegradationController level={self.level} "
            f"({LEVEL_NAMES[self.level]}) fails={self._consecutive_failures}>"
        )
