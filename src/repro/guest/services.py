"""System services: the guest processes that drive data pipelines.

§2.3 finds the top shared-memory users are the media service (28%, codec),
SurfaceFlinger (23%, GPU) and the camera service (19%, camera+ISP). These
classes are their reusable models; app categories in :mod:`repro.apps`
compose them into the Table 1 pipelines.

Each service is one simulation process, so the threading structure matches
the real system: with atomic ordering, a slow stage blocks *its* service
thread; with fences, stages dispatch and the pipeline stays deep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.emulators.base import Emulator
from repro.guest.buffers import BufferQueue, GuestBuffer
from repro.guest.vsync import VSyncSource
from repro.metrics.collectors import FpsCollector, LatencyCollector
from repro.sim import FifoQueue, Simulator, Timeout
from repro.units import UHD_DISPLAY_BUFFER_BYTES, VSYNC_PERIOD_MS


@dataclass
class FrameMeta:
    """Per-frame bookkeeping travelling with a buffer through a pipeline."""

    birth: float  # capture / arrival time (motion-to-photon anchor)
    sequence: int
    deadline: Optional[float] = None  # MediaCodec-style discard deadline
    flow: int = 0  # causal-trace flow id (0 = untraced)


class _Submission:
    """One buffer handed to SurfaceFlinger, with its home queue."""

    __slots__ = ("buffer", "queue", "meta")

    def __init__(self, buffer: GuestBuffer, queue: BufferQueue, meta: FrameMeta):
        self.buffer = buffer
        self.queue = queue
        self.meta = meta


class SurfaceFlinger:
    """The compositor: renders submitted buffers on VSync and presents.

    Per frame it runs two stages on the emulator:

    1. ``render`` on the GPU vdev — reads the submitted buffer, writes the
       framebuffer (this is the cross-device SVM read the prefetch engine
       targets);
    2. ``compose`` + ``present`` on the display vdev — reads the
       framebuffer. On PCs the display is GPU-managed, so for vSoC this
       handoff is the zero-copy special case; for guest-memory emulators
       it costs two more boundary crossings.

    ``compose_dirty_fraction`` scales the framebuffer dirty window (damage
    tracking: partial UI updates vs full-screen video).
    """

    def __init__(
        self,
        sim: Simulator,
        emulator: Emulator,
        vsync: VSyncSource,
        fps: FpsCollector,
        latency: Optional[LatencyCollector] = None,
        display_bytes: int = UHD_DISPLAY_BUFFER_BYTES,
        compose_dirty_fraction: float = 1.0,
        render_extra_bytes: int = 0,
        honor_deadlines: bool = True,
    ):
        self._sim = sim
        self._emulator = emulator
        self._vsync = vsync
        self._fps = fps
        self._latency = latency
        self.display_bytes = display_bytes
        self.compose_dirty_fraction = compose_dirty_fraction
        self.render_extra_bytes = render_extra_bytes
        self.honor_deadlines = honor_deadlines
        self._inbox: FifoQueue = FifoQueue(sim, name="sf.inbox")
        # Double-buffered framebuffers, rotated per frame.
        self._framebuffers = [emulator.svm_alloc(display_bytes) for _ in range(2)]
        self._fb_index = 0
        self.frames_rendered = 0
        self._stopped = False

    def submit(self, buffer: GuestBuffer, queue: BufferQueue, meta: FrameMeta) -> None:
        """Producer side: queue a filled buffer for composition."""
        self._inbox.put(_Submission(buffer, queue, meta))

    @property
    def backlog(self) -> int:
        return len(self._inbox)

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> Generator[Any, Any, None]:
        """Process: the compositor loop.

        Catch-up semantics: when several submissions are pending at a
        tick, only the newest is composed; the superseded ones are
        released (and counted as deadline misses when their MediaCodec
        deadline has passed — the §5.4 discard behaviour). A lone late
        frame still shows: players prefer late content over black frames.
        """
        while not self._stopped:
            yield self._vsync.wait_next()
            submission = self._inbox.try_get()
            if submission is None:
                continue
            while True:
                newer = self._inbox.try_get()
                if newer is None:
                    break
                deadline = submission.meta.deadline
                late = deadline is not None and self._sim.now > deadline
                reason = "missed-deadline" if self.honor_deadlines and late else "superseded"
                self._fps.note_dropped(reason)
                submission.queue.release(submission.buffer)
                submission = newer
            yield from self._compose_and_present(submission)

    def _compose_and_present(self, submission: _Submission) -> Generator[Any, Any, None]:
        framebuffer = self._framebuffers[self._fb_index]
        self._fb_index = 1 - self._fb_index
        dirty = max(1, int(self.display_bytes * self.compose_dirty_fraction))

        yield from self._emulator.stage(
            "gpu",
            "render",
            self.display_bytes + self.render_extra_bytes,
            reads=[submission.buffer.region_id],
            writes=[framebuffer],
            dirty_bytes=dirty,
            flow=submission.meta.flow,
        )
        present = yield from self._emulator.stage(
            "display", "compose", dirty, reads=[framebuffer],
            flow=submission.meta.flow,
        )
        meta = submission.meta
        done_at = yield present.done
        self.frames_rendered += 1
        obs = self._emulator.obs
        if obs.enabled:
            obs.tracer.instant(
                "frame.presented", "display", cat="frame", flow=meta.flow,
                sequence=meta.sequence, latency=done_at - meta.birth,
            )
        self._fps.note_presented(done_at)
        if self._latency is not None:
            self._latency.note(done_at - meta.birth)
        submission.queue.release(submission.buffer)


class MediaService:
    """The media service: paced source + decoder front-end of a video pipeline.

    The source delivers encoded frames in real time (the video's native
    frame rate); a bounded jitter queue models the demuxer buffer. When the
    pipeline is backed up (no free buffer / full jitter queue), source
    frames drop — the stutter the §5.3 bar plots measure.
    """

    def __init__(
        self,
        sim: Simulator,
        emulator: Emulator,
        buffers: BufferQueue,
        flinger: SurfaceFlinger,
        fps: FpsCollector,
        frame_bytes: int,
        frame_interval: float = VSYNC_PERIOD_MS,
        jitter_capacity: int = 4,
        deadline_ms: Optional[float] = 3 * VSYNC_PERIOD_MS,
        source_latency: float = 0.0,
        pacing_jitter: float = 0.04,
        rng: Optional["random.Random"] = None,
    ):
        self._sim = sim
        self._emulator = emulator
        self._buffers = buffers
        self._flinger = flinger
        self._fps = fps
        self.frame_bytes = frame_bytes
        self.frame_interval = frame_interval
        self.deadline_ms = deadline_ms
        self.source_latency = source_latency
        # Real sources are not phase-locked to the client's VSync: demuxer
        # scheduling and I/O add milliseconds of jitter. Without it the
        # simulation can resonate with the tick grid in ways no real
        # system does.
        self.pacing_jitter = pacing_jitter
        self._rng = rng if rng is not None else random.Random("media-service")
        self._jitter: FifoQueue = FifoQueue(sim, capacity=jitter_capacity, name="media.jitter")
        self._decoded: FifoQueue = FifoQueue(sim, name="media.decoded")
        self._sequence = 0
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    def run_source(self) -> Generator[Any, Any, None]:
        """Process: deliver encoded frames at the native rate (± jitter)."""
        yield Timeout(self._rng.uniform(0.0, self.frame_interval))  # phase
        while not self._stopped:
            jitter = 1.0 + self._rng.uniform(-self.pacing_jitter, self.pacing_jitter)
            yield Timeout(self.frame_interval * jitter)
            meta = FrameMeta(
                birth=self._sim.now - self.source_latency,
                sequence=self._sequence,
                flow=self._emulator.obs.tracer.new_flow(),
            )
            self._sequence += 1
            if not self._jitter.try_put(meta):
                self._fps.note_dropped("source-overrun")

    def run_decoder(self) -> Generator[Any, Any, None]:
        """Process: decode loop — jitter queue → SVM buffer → decoded queue.

        The dispatch is asynchronous under fences; the *callback* loop
        (:meth:`run_callbacks`) forwards each buffer to SurfaceFlinger only
        once its decode has retired on the host — the
        ``onOutputBufferAvailable`` semantics of MediaCodec.
        """
        emulator = self._emulator
        while not self._stopped:
            meta = yield self._jitter.get()
            buffer = yield self._buffers.dequeue_free()
            result = yield from emulator.stage(
                "codec",
                emulator.decode_op(),
                self.frame_bytes,
                writes=[buffer.region_id],
                flow=meta.flow,
            )
            yield self._decoded.put((buffer, meta, result.done))

    def run_callbacks(self) -> Generator[Any, Any, None]:
        """Process: forward decode completions to SurfaceFlinger, in order."""
        while not self._stopped:
            buffer, meta, done = yield self._decoded.get()
            yield done
            if self.deadline_ms is not None:
                meta.deadline = meta.birth + self.deadline_ms
            self._flinger.submit(buffer, self._buffers, meta)


class CameraService:
    """The camera service: capture + ISP conversion front-end (§2.3).

    Per frame: the camera vdev delivers a raw frame into an SVM buffer, the
    ISP converts it into a second buffer (colorspace conversion — in-GPU or
    libswscale depending on the emulator), which goes to SurfaceFlinger.
    Motion-to-photon latency anchors at the sensor time: frame birth =
    delivery time − capture latency.
    """

    def __init__(
        self,
        sim: Simulator,
        emulator: Emulator,
        raw_buffers: BufferQueue,
        out_buffers: BufferQueue,
        flinger: SurfaceFlinger,
        fps: FpsCollector,
        frame_bytes: int,
        extra_cpu_op: Optional[str] = None,
        extra_cpu_bytes: int = 0,
    ):
        self._sim = sim
        self._emulator = emulator
        self._raw = raw_buffers
        self._out = out_buffers
        self._flinger = flinger
        self._fps = fps
        self.frame_bytes = frame_bytes
        self.extra_cpu_op = extra_cpu_op
        self.extra_cpu_bytes = extra_cpu_bytes
        self._pending: FifoQueue = FifoQueue(sim, name="camera.pending")
        self._sequence = 0
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    def run_sensor(self) -> Generator[Any, Any, None]:
        """Process: the sensor ticks at its native rate, never pausing.

        A tick with no free raw buffer drops the frame (camera-overrun) —
        pipelines that cannot keep up lose frames at the source, exactly
        like a saturated real camera HAL. The sensor clock free-runs: it
        is not phase-locked to the display's VSync, so frame arrival
        phases sweep across the tick window like on real hardware.
        """
        rng = random.Random("camera-sensor")
        camera = self._emulator.physical_for("camera")
        # The sensor and display clocks are independent oscillators (think
        # a true-60 Hz sensor against a 59.94 Hz panel): a fixed ~0.4%
        # skew makes the arrival phase sweep the whole VSync window, so
        # tick-wait averages out instead of freezing at one lucky (or
        # unlucky) phase.
        skew = 1.004
        yield Timeout(rng.uniform(0.0, camera.frame_interval))
        while not self._stopped:
            yield Timeout(camera.frame_interval * skew * (1.0 + rng.uniform(-0.003, 0.003)))
            raw = self._raw.try_dequeue_free()
            if raw is None:
                self._fps.note_dropped("camera-overrun")
                continue
            meta = FrameMeta(
                birth=self._sim.now,
                sequence=self._sequence,
                flow=self._emulator.obs.tracer.new_flow(),
            )
            self._sequence += 1
            # The frame's bytes land in host memory capture_latency later.
            self._pending.put((raw, meta, self._sim.now + camera.capture_latency))

    def run_pipeline(self) -> Generator[Any, Any, None]:
        """Process: deliver → ISP convert → (optional CPU work) → submit."""
        emulator = self._emulator
        while not self._stopped:
            raw, meta, ready_at = yield self._pending.get()
            if ready_at > self._sim.now:
                yield Timeout(ready_at - self._sim.now)
            yield from emulator.stage(
                "camera", "deliver", self.frame_bytes, writes=[raw.region_id],
                flow=meta.flow,
            )
            out = yield self._out.dequeue_free()
            convert = yield from emulator.stage(
                "isp",
                emulator.convert_op(),
                self.frame_bytes,
                reads=[raw.region_id],
                writes=[out.region_id],
                flow=meta.flow,
            )
            yield convert.done  # ISP completion callback
            self._raw.release(raw)
            if self.extra_cpu_op is not None:
                yield from emulator.stage(
                    "cpu", self.extra_cpu_op, self.extra_cpu_bytes,
                    reads=[out.region_id], flow=meta.flow,
                )
            self._flinger.submit(out, self._out, meta)
