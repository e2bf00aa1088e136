"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs. The
vSoC paper evaluates on real machines; we replace wall-clock hardware with a
discrete-event simulator so experiments are fast, deterministic, and
instrumentable down to individual memory copies.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.kernel.Process` — a generator-based coroutine.
* :mod:`~repro.sim.primitives` — ``Timeout``, ``SimEvent``, ``AllOf``,
  ``Semaphore``, ``Mutex``, ``FifoQueue``.
* :mod:`~repro.sim.tracing` — structured trace records.
"""

from repro.sim.kernel import Process, ScheduledCall, Simulator
from repro.sim.primitives import (
    AllOf,
    FifoQueue,
    Mutex,
    Semaphore,
    SimEvent,
    Timeout,
    Waitable,
)
from repro.sim.resilience import Deadline, RetryPolicy, retrying, with_deadline
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "Simulator",
    "Process",
    "ScheduledCall",
    "Waitable",
    "Timeout",
    "SimEvent",
    "AllOf",
    "Semaphore",
    "Mutex",
    "FifoQueue",
    "TraceLog",
    "TraceRecord",
    "RetryPolicy",
    "retrying",
    "Deadline",
    "with_deadline",
]
