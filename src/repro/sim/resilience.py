"""Resilience primitives: a backoff schedule, and a watchdog.

The paper's robustness story (§3.3, §5.3) is reactive — suspend prefetch on
mispredictions, degrade under thermal collapse — but the mechanisms it
reacts *with* are generic: retry an operation a bounded number of times with
exponential backoff, and bound how long any one operation may run. This
module provides those two pieces for simulation processes:

* :class:`RetryPolicy` — the exponentially growing (capped) delays between
  attempts, and when to give up. The retry loops themselves live with the
  operations they retry: coherence copies in
  :class:`~repro.core.coherence.CopyPlanner`, virtio kicks in
  :class:`~repro.guest.transport.VirtioTransport`;
* :func:`with_deadline` — a watchdog: a process wrapper racing an inner
  process against a timer that fails the waiter with
  :class:`~repro.errors.DeadlineExceededError`.

Both are fully deterministic: no unseeded randomness, delays are pure
functions of the attempt number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.sim.primitives import SimEvent


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for retried operations.

    ``max_attempts`` counts *total* tries (first try included); ``None``
    retries forever — only safe when the failure is known to clear (a
    finite fault window). The delay before retry *n* (n = 1 after the
    first failure) is ``min(max_delay_ms, base_delay_ms * multiplier^(n-1))``.
    """

    max_attempts: Optional[int] = 3
    base_delay_ms: float = 0.05
    multiplier: float = 2.0
    max_delay_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1 or None")
        for label, value in (
            ("base_delay_ms", self.base_delay_ms),
            ("multiplier", self.multiplier),
            ("max_delay_ms", self.max_delay_ms),
        ):
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"{label} must be finite and >= 0, got {value}"
                )
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")

    def delay_before_retry(self, failures: int) -> float:
        """Backoff delay (ms) after the ``failures``-th consecutive failure."""
        if failures < 1:
            raise ConfigurationError("failures must be >= 1")
        return min(self.max_delay_ms, self.base_delay_ms * self.multiplier ** (failures - 1))

    def exhausted(self, failures: int) -> bool:
        """True when ``failures`` consecutive failures end the retry loop."""
        return self.max_attempts is not None and failures >= self.max_attempts


def with_deadline(
    sim: Any,
    gen: Generator[Any, Any, Any],
    deadline_ms: float,
    name: str = "op",
) -> Generator[Any, Any, Any]:
    """Process wrapper: run ``gen``; fail the *waiter* if it overruns.

    Races ``gen`` (spawned as its own process) against a ``deadline_ms``
    watchdog. On expiry the caller sees :class:`DeadlineExceededError`,
    while the inner process keeps running to completion in the background
    — exactly like a timed-out DMA, which still occupies its bus (and
    releases its locks) when it eventually finishes. A late success or
    failure of the orphaned process is deliberately discarded.
    """
    if not math.isfinite(deadline_ms) or deadline_ms <= 0:
        raise ConfigurationError(f"deadline must be finite and > 0, got {deadline_ms}")
    gate = SimEvent(sim, name=f"{name}.gate")
    proc = sim.spawn(gen, name=name)

    def on_done(value: Any, exc: Optional[BaseException]) -> None:
        if gate.fired:
            return  # the deadline won the race; drop the orphan's outcome
        if exc is not None:
            gate.fail(exc)
        else:
            gate.fire(value)

    proc.add_callback(on_done)

    def on_deadline() -> None:
        if not gate.fired:
            gate.fail(
                DeadlineExceededError(f"{name!r} exceeded its {deadline_ms:.3f} ms deadline")
            )

    handle = sim.schedule(deadline_ms, on_deadline)
    try:
        value = yield gate
    finally:
        handle.cancel()
    return value
