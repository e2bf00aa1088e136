"""Trace-driven workloads: record SVM usage once, replay it anywhere.

The §2.3 measurement methodology as a reusable artifact: capture the
shared-memory access pattern an app produced on one emulator, then replay
that exact sequence against any other emulator, each event no earlier than
its recorded time — isolating the memory architecture's cost from app-side
feedback effects.
"""

from repro.workloads.trace import (
    ReplayResult,
    TraceEvent,
    WorkloadTrace,
    record_workload,
    replay_workload,
)

__all__ = [
    "TraceEvent",
    "WorkloadTrace",
    "ReplayResult",
    "record_workload",
    "replay_workload",
]
