"""GraphApp: the generic stage-graph workload scenario documents lower to.

Catalog pipelines (``video``, ``ar``, ...) compile straight to their
hand-written app classes; the ``graph`` pipeline compiles to this one. A
GraphApp drives the same guest machinery as any catalog app — a
:class:`~repro.guest.buffers.BufferQueue`, a
:class:`~repro.guest.services.SurfaceFlinger` on a VSync source — but the
per-frame device work is data: an ordered list of ``{device, op, bytes}``
stages. That is exactly the write→slack→read shape the paper's analysis
is built on, with the shape chosen by a scenario file (or the fuzzer)
instead of a Python class.
"""

from __future__ import annotations

import random
from typing import Any, Generator, List, Mapping, Optional

from repro.apps.base import App
from repro.emulators.base import Emulator
from repro.errors import CapabilityError
from repro.guest.buffers import BufferQueue
from repro.guest.services import FrameMeta, SurfaceFlinger
from repro.guest.vsync import VSyncSource
from repro.sim import FifoQueue, Simulator, Timeout
from repro.units import SECOND, UHD_FRAME_BYTES, VSYNC_PERIOD_MS


class GraphApp(App):
    """A workload defined by data: paced source → device stages → compositor.

    ``stages`` is an ordered list of ``{"device", "op", "bytes"}`` dicts.
    The first stage writes the frame's SVM buffer (the producer); every
    later stage reads it — each hop a cross-device dependency the
    emulator's coherence machinery must get right. Ops ``decode`` /
    ``encode`` / ``convert`` resolve to the emulator's hardware or
    software path at run time, like the catalog services do.
    """

    category = "Scenario"

    def __init__(
        self,
        name: str,
        stages: List[Mapping[str, Any]],
        frame_rate: float = 60.0,
        buffers: int = 4,
        frame_bytes: int = UHD_FRAME_BYTES,
        burst: int = 1,
        source_jitter: float = 0.04,
        compose_dirty_fraction: float = 0.5,
        deadline_vsyncs: Optional[float] = None,
        measure_latency: bool = False,
        warmup_ms: float = 2_000.0,
    ):
        # Must be set before super().__init__ — the base ctor reads it to
        # decide whether to create the latency collector.
        self.measures_latency = bool(measure_latency)
        super().__init__(name, warmup_ms=warmup_ms)
        self.stages = [dict(stage) for stage in stages]
        self.frame_rate = frame_rate
        self.buffers = buffers
        self.frame_bytes = frame_bytes
        self.burst = burst
        self.source_jitter = source_jitter
        self.compose_dirty_fraction = compose_dirty_fraction
        self.deadline_vsyncs = deadline_vsyncs

    # -- install-time checks -------------------------------------------------
    def check_capabilities(self, emulator: Emulator) -> None:
        for stage in self.stages:
            device = stage["device"]
            if not emulator.has_vdev(device):
                raise CapabilityError(
                    f"{self.name}: emulator has no {device!r} virtual device"
                )
            if stage["op"] == "encode" and not emulator.supports_encoding():
                raise CapabilityError(
                    f"{self.name}: emulator cannot encode"
                )

    def _resolve_op(self, emulator: Emulator, op: str) -> str:
        if op == "decode":
            return emulator.decode_op()
        if op == "encode":
            return emulator.encode_op()
        if op == "convert":
            return emulator.convert_op()
        return op

    # -- pipeline ------------------------------------------------------------
    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        queue = BufferQueue(sim, emulator, self.buffers, self.frame_bytes,
                            name=f"{self.name}.bq")
        flinger = SurfaceFlinger(
            sim,
            emulator,
            vsync,
            self.fps,
            latency=self.latency,
            compose_dirty_fraction=self.compose_dirty_fraction,
            honor_deadlines=self.deadline_vsyncs is not None,
        )
        self._queue = queue
        self._flinger = flinger
        self._pending: FifoQueue = FifoQueue(sim, capacity=4,
                                             name=f"{self.name}.pending")
        self._sequence = 0
        sim.spawn(flinger.run(), name=f"{self.name}:sf")
        sim.spawn(self._run_source(sim, emulator), name=f"{self.name}:source")
        sim.spawn(self._run_worker(sim, emulator), name=f"{self.name}:worker")

    def _run_source(self, sim: Simulator, emulator: Emulator) -> Generator:
        """Paced frame source: ``burst`` frames every burst interval."""
        rng = random.Random(f"{self.name}:scenario-source")
        interval = SECOND / self.frame_rate
        yield Timeout(rng.uniform(0.0, interval * self.burst))  # phase
        while True:
            jitter = 1.0 + rng.uniform(-self.source_jitter, self.source_jitter)
            yield Timeout(interval * self.burst * jitter)
            for _ in range(self.burst):
                meta = FrameMeta(
                    birth=sim.now,
                    sequence=self._sequence,
                    flow=emulator.tracer.new_flow(),
                )
                self._sequence += 1
                if not self._pending.try_put(meta):
                    self.fps.note_dropped("source-overrun")

    def _run_worker(self, sim: Simulator, emulator: Emulator) -> Generator:
        """Per frame: run every stage against the frame's SVM buffer."""
        while True:
            meta = yield self._pending.get()
            buffer = yield self._queue.dequeue_free()
            result = None
            for index, stage in enumerate(self.stages):
                op = self._resolve_op(emulator, stage["op"])
                if index == 0:
                    reads: List[int] = []
                    writes = [buffer.region_id]
                else:
                    reads = [buffer.region_id]
                    writes = []
                result = yield from emulator.stage(
                    stage["device"], op, stage["bytes"],
                    reads=reads, writes=writes, flow=meta.flow,
                )
            if result is not None:
                yield result.done
            if self.deadline_vsyncs is not None:
                meta.deadline = meta.birth + self.deadline_vsyncs * VSYNC_PERIOD_MS
            self._flinger.submit(buffer, self._queue, meta)
