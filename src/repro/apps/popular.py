"""Top-popular apps (§5.5) and heavy-3D gaming apps (§5.3's Trinity set).

A :class:`PopularApp` is a conventional UI/game app: per frame it performs
a number of small CPU-side shared-memory operations (Skia and friends —
"SVM is also commonly used in other system components of the Android
framework"), renders its window, and submits it to SurfaceFlinger. No
media pipeline — which is why emulator differences are much smaller here
(12-49%, Figure 15) than on the emerging apps.

A :class:`Heavy3dApp` is Trinity's home turf: a GPU-bound 3D game that
barely touches shared memory — §5.3: vSoC improves those by only ~1%.
"""

from __future__ import annotations

from repro.apps.base import App
from repro.emulators.base import Emulator
from repro.guest.buffers import BufferQueue
from repro.guest.hal import SharedMemoryHal
from repro.guest.services import FrameMeta, SurfaceFlinger
from repro.guest.vsync import VSyncSource
from repro.sim import Simulator
from repro.units import MIB, UHD_DISPLAY_BUFFER_BYTES


class PopularApp(App):
    """A conventional popular app: UI rendering + Skia-style SVM traffic."""

    category = "Popular"
    measures_latency = False

    def __init__(
        self,
        name: str = "popular-app",
        render_bytes: int = 8 * MIB,
        svm_calls_per_frame: int = 6,
        svm_call_bytes: int = MIB,
        window_bytes: int = UHD_DISPLAY_BUFFER_BYTES // 2,
        compose_dirty_fraction: float = 0.35,
        atlas_bytes: int = 0,
        warmup_ms: float = 2_000.0,
    ):
        super().__init__(name, warmup_ms=warmup_ms)
        self.render_bytes = render_bytes
        self.svm_calls_per_frame = svm_calls_per_frame
        self.svm_call_bytes = svm_call_bytes
        self.window_bytes = window_bytes
        self.compose_dirty_fraction = compose_dirty_fraction
        # Skia texture/glyph atlas: CPU-written, GPU-read every frame —
        # the cross-device SVM flow "commonly used in other system
        # components of the Android framework" (§5.5). 0 disables.
        self.atlas_bytes = atlas_bytes

    def build(self, sim: Simulator, emulator: Emulator, vsync: VSyncSource) -> None:
        windows = BufferQueue(sim, emulator, 3, self.window_bytes, name=f"{self.name}.win")
        flinger = SurfaceFlinger(
            sim,
            emulator,
            vsync,
            self.fps,
            display_bytes=UHD_DISPLAY_BUFFER_BYTES,
            compose_dirty_fraction=self.compose_dirty_fraction,
            honor_deadlines=False,
        )
        sim.spawn(flinger.run(), name=f"{self.name}:sf")
        sim.spawn(self._app_loop(sim, emulator, vsync, windows, flinger), name=f"{self.name}:ui")

    def _app_loop(self, sim, emulator, vsync, windows: BufferQueue, flinger):
        """Process: the app's UI thread, paced by the choreographer.

        Per-frame render work varies ±25% (scene complexity), and the loop
        implements GL double-buffering semantics: it blocks on the
        previous frame's render before issuing the next (swap-buffers
        back-pressure), so an oversubscribed GPU paces the app instead of
        piling up unbounded command backlog.
        """
        import random

        rng = random.Random(f"{self.name}:frames")
        hal = SharedMemoryHal(emulator)
        scratch = [hal.alloc(self.svm_call_bytes) for _ in range(2)]
        atlas = hal.alloc(self.atlas_bytes) if self.atlas_bytes else None
        sequence = 0
        previous_render = None
        while True:
            yield vsync.wait_next()
            if previous_render is not None and not previous_render.done.fired:
                yield previous_render.done
            window = windows.try_dequeue_free()
            if window is None:
                self.fps.note_dropped("ui-overrun")
                continue
            # Skia-style CPU shared-memory churn (IPC, glyph caches, ...).
            for call in range(self.svm_calls_per_frame):
                handle = scratch[call % len(scratch)]
                if call % 2 == 0:
                    yield from hal.write_cycle(handle, self.svm_call_bytes)
                else:
                    yield from hal.read_cycle(handle, self.svm_call_bytes)
            reads = []
            if atlas is not None:
                # CPU rasterizes new atlas content; the GPU samples it.
                yield from hal.write_cycle(atlas, self.atlas_bytes)
                reads.append(atlas)
            frame_bytes = int(self.render_bytes * rng.uniform(0.75, 1.25))
            previous_render = yield from emulator.stage(
                "gpu", "render", frame_bytes, reads=reads, writes=[window.region_id]
            )
            flinger.submit(window, windows, FrameMeta(birth=sim.now, sequence=sequence))
            sequence += 1


class Heavy3dApp(PopularApp):
    """A GPU-bound 3D game: large render, negligible shared-memory use.

    Games render straight into their EGL swapchain — no BufferQueue SVM
    round trip — which is §5.3's explanation for why vSoC improves
    Trinity's heavy-3D suite by only ~1%: "those apps rarely involve other
    SoC devices and shared memory". The frame loop here is therefore pure
    GPU work: render, present, repeat, with double-buffering back-pressure.
    """

    category = "Heavy3D"

    def __init__(self, name: str = "heavy-3d", render_bytes: int = 420 * MIB, **kwargs):
        kwargs.setdefault("svm_calls_per_frame", 1)
        kwargs.setdefault("svm_call_bytes", 64 * 1024)
        kwargs.setdefault("compose_dirty_fraction", 1.0)
        super().__init__(name, render_bytes=render_bytes, **kwargs)

    def build(self, sim, emulator, vsync) -> None:
        sim.spawn(self._game_loop(sim, emulator, vsync), name=f"{self.name}:game")

    def _game_loop(self, sim, emulator, vsync):
        import random

        rng = random.Random(f"{self.name}:frames")
        hal = SharedMemoryHal(emulator)
        scratch = hal.alloc(self.svm_call_bytes)
        previous = None
        frame = 0
        while True:
            yield vsync.wait_next()
            if previous is not None and not previous.done.fired:
                yield previous.done
            if frame % 30 == 0:  # occasional small IPC traffic
                yield from hal.write_cycle(scratch, self.svm_call_bytes)
            frame_bytes = int(self.render_bytes * rng.uniform(0.75, 1.25))
            yield from emulator.stage("gpu", "render", frame_bytes)
            previous = yield from emulator.stage("display", "present", 0)

            def note(_value, _exc, t=sim):
                self.fps.note_presented(t.now)

            previous.done.add_callback(note)
            frame += 1
