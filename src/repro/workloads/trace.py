"""SVM usage traces: record, serialize, replay.

A :class:`WorkloadTrace` is the sequence of shared-memory events an app
produced: allocations, frees, and device accesses with their timestamps
and dirty sizes. Traces come from a live run (:func:`record_workload`) or
from JSON (:meth:`WorkloadTrace.load`), and replay against any emulator
(:func:`replay_workload`): each event is issued no earlier than its
recorded time, and replay waits for each write/read to finish before it
issues the next event, so an emulator with slower coherence falls behind
the recording.

Replay answers a question the closed-loop app benchmarks cannot: *with the
access sequence and sizes held constant*, how much time does each memory
architecture spend on coherence? (In closed loop, a slow emulator slows
the app down, which reduces its access rate, which hides cost.) A replay
that falls behind stops at the horizon, one second past the recording's
end, and reports how many events it issued by then.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.emulators.base import Emulator
from repro.errors import ConfigurationError
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec
from repro.metrics.collectors import SvmStats
from repro.sim import Simulator, Timeout
from repro.sim.tracing import TraceLog

#: Default device op used when replaying a write/read on each vdev.
_REPLAY_OPS = {
    "codec": ("decode", "read_back"),
    "gpu": ("render", "render"),
    "display": ("compose", "compose"),
    "camera": ("deliver", "deliver"),
    "isp": ("convert", "convert"),
    "modem": ("recv", "recv"),
    "cpu": ("memcpy", "memcpy"),
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded shared-memory event."""

    time: float
    kind: str  # "alloc" | "free" | "write" | "read"
    region: int
    vdev: str = ""
    nbytes: int = 0

    def validate(self) -> None:
        if self.kind not in ("alloc", "free", "write", "read"):
            raise ConfigurationError(f"unknown trace event kind {self.kind!r}")
        if self.time < 0:
            raise ConfigurationError("event time must be >= 0")
        if self.kind in ("alloc", "write", "read") and self.nbytes <= 0:
            raise ConfigurationError(f"{self.kind} event needs nbytes > 0")


@dataclass
class WorkloadTrace:
    """An ordered sequence of :class:`TraceEvent`."""

    name: str
    events: List[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            event.validate()
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ConfigurationError("trace events must be time-ordered")

    @property
    def duration_ms(self) -> float:
        return self.events[-1].time if self.events else 0.0

    @property
    def regions(self) -> int:
        return sum(1 for e in self.events if e.kind == "alloc")

    # -- serialization ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(
                {"name": self.name, "events": [asdict(e) for e in self.events]},
                stream,
            )

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path) as stream:
            data = json.load(stream)
        return cls(
            name=data["name"],
            events=[TraceEvent(**event) for event in data["events"]],
        )


def record_workload(trace_log: TraceLog, name: str = "recorded") -> WorkloadTrace:
    """Distill an emulator's instrumentation log into a replayable trace.

    Uses the ``svm.alloc`` / ``svm.free`` records plus write retirements
    and read accesses — the same events the paper's instrumentation of the
    shared-memory interface captured.
    """
    events: List[TraceEvent] = []
    sizes: Dict[int, int] = {}
    for record in trace_log:
        if record.kind == "svm.alloc":
            sizes[record["region"]] = int(record["size"])
            events.append(TraceEvent(record.time, "alloc", record["region"],
                                     nbytes=int(record["size"])))
        elif record.kind == "svm.free":
            events.append(TraceEvent(record.time, "free", record["region"]))
        elif record.kind == "svm.write_retired":
            events.append(TraceEvent(record.time, "write", record["region"],
                                     vdev=record["vdev"], nbytes=int(record["bytes"])))
        elif record.kind == "svm.access_latency" and record["usage"] == "ro":
            events.append(TraceEvent(record.time, "read", record["region"],
                                     vdev=record["vdev"], nbytes=int(record["bytes"])))
    events.sort(key=lambda e: e.time)
    return WorkloadTrace(name=name, events=events)


@dataclass
class ReplayResult:
    """What the target emulator did under the replayed access pattern."""

    trace_name: str
    emulator: str
    events_replayed: int
    total_coherence_ms: float
    mean_coherence_ms: Optional[float]
    mean_access_latency_ms: Optional[float]
    bytes_copied: int


def _replay_driver(sim: Simulator, emulator: Emulator, trace: WorkloadTrace,
                   issued: List[TraceEvent]) -> Generator[Any, Any, None]:
    """Issue the trace's events in order, appending each to ``issued``.

    An access counts once it is issued, so a replay the horizon cuts
    short still reports how far it got.
    """
    handles: Dict[int, int] = {}
    for event in trace.events:
        if event.time > sim.now:
            yield Timeout(event.time - sim.now)
        if event.kind == "alloc":
            handles[event.region] = emulator.svm_alloc(event.nbytes)
        elif event.kind == "free":
            handle = handles.pop(event.region, None)
            if handle is not None:
                emulator.svm_free(handle)
        elif event.region not in handles:
            continue  # accesses before the alloc record: skip
        issued.append(event)
        if event.kind not in ("write", "read"):
            continue
        handle = handles[event.region]
        vdev = event.vdev if emulator.has_vdev(event.vdev) else "cpu"
        write_op, read_op = _REPLAY_OPS.get(vdev, ("memcpy", "memcpy"))
        op = write_op if event.kind == "write" else read_op
        if not emulator.physical_for(vdev).supports(op):
            op = emulator.decode_op() if vdev == "codec" else "memcpy"
            if not emulator.physical_for(vdev).supports(op):
                vdev, op = "cpu", "memcpy"
        if event.kind == "write":
            result = yield from emulator.stage(
                vdev, op, event.nbytes, writes=[handle]
            )
        else:
            result = yield from emulator.stage(
                vdev, op, event.nbytes, reads=[handle]
            )
        yield result.done


def replay_workload(
    trace: WorkloadTrace,
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    seed: int = 0,
) -> ReplayResult:
    """Replay a trace against one emulator; returns its coherence bill."""
    from repro.experiments.runner import build_rig

    rig = build_rig(emulator_name, machine_spec, seed)
    issued: List[TraceEvent] = []
    rig.sim.spawn(_replay_driver(rig.sim, rig.emulator, trace, issued), name="replay")
    rig.sim.run(until=trace.duration_ms + 1_000.0)

    stats = SvmStats(rig.trace, trace.duration_ms or 1.0)
    coherence = stats.coherence_durations()
    copied = sum(int(r["bytes"]) for r in rig.trace.of_kind("coherence.maintenance"))
    return ReplayResult(
        trace_name=trace.name,
        emulator=emulator_name,
        events_replayed=len(issued),
        total_coherence_ms=sum(coherence),
        mean_coherence_ms=stats.average_coherence_cost(),
        mean_access_latency_ms=stats.average_access_latency(),
        bytes_copied=copied,
    )
