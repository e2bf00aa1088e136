"""UHD and 360-degree video apps (Table 1, rows 1-2).

Pipeline: codec → GPU → display. The source plays a 3840x2160, 60 FPS,
300 Mbps video; decoded frames are 15.8 MiB (YUV420-style packed), and the
compositor's video plane dirties roughly half the UHD RGBA framebuffer per
frame (damage-tracked composition).

360° video differs in the render stage: equirectangular projection samples
the whole decoded sphere texture per output frame, adding significant GPU
work (``projection_extra_bytes``).
"""

from __future__ import annotations

from repro.apps.base import App
from repro.emulators.base import Emulator
from repro.guest.buffers import BufferQueue
from repro.guest.services import MediaService, SurfaceFlinger
from repro.guest.vsync import VSyncSource
from repro.sim import Simulator
from repro.units import UHD_DISPLAY_BUFFER_BYTES, UHD_FRAME_BYTES, VSYNC_PERIOD_MS


class UhdVideoApp(App):
    """A UHD (4K60) video-playback app."""

    category = "UHD Video"
    measures_latency = False

    def __init__(
        self,
        name: str = "uhd-video",
        buffers: int = 4,
        frame_bytes: int = UHD_FRAME_BYTES,
        compose_dirty_fraction: float = 0.5,
        deadline_vsyncs: float = 3.0,
        warmup_ms: float = 2_000.0,
    ):
        super().__init__(name, warmup_ms=warmup_ms)
        self.buffers = buffers
        self.frame_bytes = frame_bytes
        self.compose_dirty_fraction = compose_dirty_fraction
        self.deadline_vsyncs = deadline_vsyncs

    def projection_extra_bytes(self) -> int:
        return 0

    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        queue = BufferQueue(sim, emulator, self.buffers, self.frame_bytes, name=f"{self.name}.bq")
        flinger = SurfaceFlinger(
            sim,
            emulator,
            vsync,
            self.fps,
            latency=self.latency,
            display_bytes=UHD_DISPLAY_BUFFER_BYTES,
            compose_dirty_fraction=self.compose_dirty_fraction,
            render_extra_bytes=self.projection_extra_bytes(),
        )
        media = MediaService(
            sim,
            emulator,
            queue,
            flinger,
            self.fps,
            frame_bytes=self.frame_bytes,
            deadline_ms=self.deadline_vsyncs * VSYNC_PERIOD_MS,
        )
        sim.spawn(flinger.run(), name=f"{self.name}:sf")
        sim.spawn(media.run_source(), name=f"{self.name}:source")
        sim.spawn(media.run_decoder(), name=f"{self.name}:decoder")
        sim.spawn(media.run_callbacks(), name=f"{self.name}:callbacks")


class ShortFormVideoApp(UhdVideoApp):
    """A short-form video app: a new clip (and data pipeline) every few
    seconds — the §3.3 stress case for prediction warm-up.

    Each clip switch tears down the previous BufferQueue and allocates a
    fresh one, so every buffer is a *new* SVM region. With flow-level R/W
    history the prefetch engine predicts these regions' readers zero-shot;
    with per-region history it would pay a cold start per buffer per clip.
    """

    category = "UHD Video"

    def __init__(self, name: str = "short-form", clip_ms: float = 2_500.0, **kwargs):
        kwargs.setdefault("buffers", 3)
        super().__init__(name, **kwargs)
        self.clip_ms = clip_ms
        self.clip_switches = 0

    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        flinger = SurfaceFlinger(
            sim,
            emulator,
            vsync,
            self.fps,
            latency=self.latency,
            display_bytes=UHD_DISPLAY_BUFFER_BYTES,
            compose_dirty_fraction=self.compose_dirty_fraction,
        )
        sim.spawn(flinger.run(), name=f"{self.name}:sf")
        sim.spawn(self._clip_loop(sim, emulator, flinger), name=f"{self.name}:clips")

    def _clip_loop(self, sim, emulator, flinger):
        from repro.sim import Timeout

        while True:
            queue = BufferQueue(sim, emulator, self.buffers, self.frame_bytes,
                                name=f"{self.name}.clip{self.clip_switches}")
            media = MediaService(
                sim, emulator, queue, flinger, self.fps,
                frame_bytes=self.frame_bytes,
                deadline_ms=self.deadline_vsyncs * VSYNC_PERIOD_MS,
            )
            source = sim.spawn(media.run_source(), name=f"{self.name}:src")
            decoder = sim.spawn(media.run_decoder(), name=f"{self.name}:dec")
            callbacks = sim.spawn(media.run_callbacks(), name=f"{self.name}:cb")
            yield Timeout(self.clip_ms)
            media.stop()
            self.clip_switches += 1
            # the old clip's buffers drain; a fresh pipeline starts next
            # iteration (regions intentionally leak until run end — real
            # apps cache a few clips ahead/behind).


class Video360App(UhdVideoApp):
    """A 360° video app: same decode path, heavier projection rendering."""

    category = "360 Video"

    def __init__(self, name: str = "video-360", **kwargs):
        kwargs.setdefault("compose_dirty_fraction", 1.0)  # full-sphere redraw
        kwargs.setdefault("deadline_vsyncs", 3.5)
        super().__init__(name, **kwargs)

    def projection_extra_bytes(self) -> int:
        # Equirectangular projection is fill-rate hungry: every output
        # pixel is a dependent sphere-texture sample with per-pixel
        # trigonometry — roughly an order of magnitude more GPU work per
        # frame than flat video-plane sampling.
        return 10 * self.frame_bytes
