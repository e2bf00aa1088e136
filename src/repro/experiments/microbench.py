"""Table 2 — SVM microbenchmarks (+ the §5.2 prediction statistics).

The microbenchmark drives cross-device SVM pipelines directly (producer
device writes a UHD frame, consumer device reads it on the next VSync),
mirroring how the paper characterizes SVM performance independent of app
logic. Metrics follow §5.2's definitions:

* **access latency** — mean blocking time of ``begin_access`` calls;
* **coherence cost** — mean duration of one coherence maintenance;
* **throughput** — total bytes accessed through the SVM interface divided
  by test duration (prefetch-wasted copies excluded — they are traced as
  maintenances, not accesses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.experiments.runner import build_rig
from repro.guest.vsync import VSyncSource
from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec
from repro.metrics.collectors import SvmStats
from repro.sim import FifoQueue, Timeout
from repro.units import UHD_FRAME_BYTES, VSYNC_PERIOD_MS, to_gb_per_s


@dataclass
class SvmMicrobenchResult:
    """One emulator's Table 2 row (for one machine)."""

    emulator: str
    machine: str
    access_latency_ms: float
    coherence_cost_ms: float
    throughput_gbps: float
    # §5.2 prediction statistics (None for emulators without an engine)
    prediction_accuracy: Optional[float] = None
    slack_std_error_ms: Optional[float] = None
    prefetch_std_error_ms: Optional[float] = None
    framework_overhead_bytes: int = 0
    cpu_overhead_fraction: float = 0.0


def _producer(sim, emulator, regions, frame_bytes, handoff, free, rng) -> Generator[Any, Any, None]:
    """Writer side of one pipeline: a codec-style producer at ~60 FPS.

    Double-buffered, like every real pipeline (§2.3): the producer writes
    into the next free buffer while the consumer reads the previous one —
    the buffering that creates the slack intervals prefetch hides under.
    """
    for region_id in regions:
        free.try_put(region_id)
    yield Timeout(rng.uniform(0.0, VSYNC_PERIOD_MS))
    while True:
        yield Timeout(VSYNC_PERIOD_MS * (1.0 + rng.uniform(-0.015, 0.015)))
        region_id = yield free.get()
        result = yield from emulator.stage(
            "codec", emulator.decode_op(), frame_bytes, writes=[region_id]
        )
        yield result.done
        handoff.try_put(region_id)


def _consumer(sim, emulator, frame_bytes, handoff, free, vsync) -> Generator[Any, Any, None]:
    """Reader side: a GPU-style consumer, one read per write, VSync-paced."""
    while True:
        region_id = yield handoff.get()
        yield vsync.wait_next()
        result = yield from emulator.stage(
            "gpu", "render", frame_bytes, reads=[region_id]
        )
        yield result.done
        free.try_put(region_id)


def run_svm_microbench(
    emulator_name: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = 10_000.0,
    pipelines: int = 3,
    frame_bytes: int = UHD_FRAME_BYTES,
    seed: int = 0,
) -> SvmMicrobenchResult:
    """Run the SVM microbenchmark for one emulator on one machine."""
    rig = build_rig(emulator_name, machine_spec, seed)
    sim, emulator = rig.sim, rig.emulator
    vsync = VSyncSource(sim)
    rng = random.Random(seed + 1)
    for index in range(pipelines):
        regions = [emulator.svm_alloc(frame_bytes) for _ in range(2)]
        handoff = FifoQueue(sim, capacity=2, name=f"handoff-{index}")
        free = FifoQueue(sim, capacity=2, name=f"free-{index}")
        sim.spawn(
            _producer(sim, emulator, regions, frame_bytes, handoff, free, rng),
            name=f"producer-{index}",
        )
        sim.spawn(
            _consumer(sim, emulator, frame_bytes, handoff, free, vsync),
            name=f"consumer-{index}",
        )
    sim.run(until=duration_ms)

    stats = SvmStats.from_trace(rig.trace, duration_ms)
    accuracy = slack_err = prefetch_err = None
    cpu_fraction = 0.0
    overhead = emulator.manager.memory_overhead_bytes()
    if emulator.engine is not None:
        accuracy = emulator.engine.stats.accuracy
        slack_err, prefetch_err = _prediction_errors(emulator)
        cpu_fraction = emulator.engine.stats.cpu_overhead_fraction(duration_ms)
    return SvmMicrobenchResult(
        emulator=emulator_name,
        machine=machine_spec.name,
        access_latency_ms=stats.average_access_latency() or 0.0,
        coherence_cost_ms=stats.average_coherence_cost() or 0.0,
        throughput_gbps=to_gb_per_s(stats.throughput_bytes_per_ms()),
        prediction_accuracy=accuracy,
        slack_std_error_ms=slack_err,
        prefetch_std_error_ms=prefetch_err,
        framework_overhead_bytes=overhead,
        cpu_overhead_fraction=cpu_fraction,
    )


def _prediction_errors(emulator) -> tuple:
    """RMS forecast errors of the slack/prefetch-time predictors (§5.2)."""
    slack_errors = []
    prefetch_errors = []
    for edge in emulator.twin.virtual:
        stat = edge.stats.get("slack")
        if stat is not None and stat.std_error is not None:
            slack_errors.append(stat.std_error)
    for edge in emulator.twin.physical:
        stat = edge.stats.get("prefetch_time")
        if stat is not None and stat.std_error is not None:
            prefetch_errors.append(stat.std_error)
    slack = sum(slack_errors) / len(slack_errors) if slack_errors else None
    prefetch = sum(prefetch_errors) / len(prefetch_errors) if prefetch_errors else None
    return slack, prefetch


def run_table2(
    machine_specs=None,
    duration_ms: float = 10_000.0,
    seed: int = 0,
) -> Dict[str, Dict[str, SvmMicrobenchResult]]:
    """Table 2: {emulator: {machine: result}} for vSoC / GAE / QEMU-KVM."""
    from repro.hw.machine import MIDDLE_END_LAPTOP

    if machine_specs is None:
        machine_specs = (HIGH_END_DESKTOP, MIDDLE_END_LAPTOP)
    table: Dict[str, Dict[str, SvmMicrobenchResult]] = {}
    for name in ("vSoC", "GAE", "QEMU-KVM"):
        table[name] = {
            spec.name: run_svm_microbench(name, spec, duration_ms, seed=seed)
            for spec in machine_specs
        }
    return table
