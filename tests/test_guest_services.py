"""Integration tests for the system services (repro.guest.services)."""

import random

from repro.emulators import make_vsoc, make_gae
from repro.guest import BufferQueue, VSyncSource
from repro.guest.services import CameraService, FrameMeta, MediaService, SurfaceFlinger
from repro.hw import build_machine
from repro.metrics.collectors import FpsCollector, LatencyCollector
from repro.sim import Simulator
from repro.units import UHD_DISPLAY_BUFFER_BYTES, UHD_FRAME_BYTES


def build(factory=make_vsoc):
    sim = Simulator()
    machine = build_machine(sim)
    emulator = factory(sim, machine, rng=random.Random(0))
    vsync = VSyncSource(sim)
    fps = FpsCollector()
    return sim, emulator, vsync, fps


def spawn_video(sim, emulator, vsync, fps, latency=None, buffers=4):
    queue = BufferQueue(sim, emulator, buffers, UHD_FRAME_BYTES)
    flinger = SurfaceFlinger(
        sim, emulator, vsync, fps, latency=latency,
        display_bytes=UHD_DISPLAY_BUFFER_BYTES, compose_dirty_fraction=0.5,
    )
    media = MediaService(sim, emulator, queue, flinger, fps,
                         frame_bytes=UHD_FRAME_BYTES)
    sim.spawn(flinger.run(), name="sf")
    sim.spawn(media.run_source(), name="source")
    sim.spawn(media.run_decoder(), name="decoder")
    sim.spawn(media.run_callbacks(), name="callbacks")
    return flinger, media


def test_video_pipeline_reaches_full_rate_on_vsoc():
    sim, emulator, vsync, fps = build()
    spawn_video(sim, emulator, vsync, fps)
    sim.run(until=5_000.0)
    # near-full rate (paper: ~57 FPS — occasional phase-misses are real)
    assert fps.fps(5_000.0, warmup_ms=1_000.0) > 52.0


def test_video_pipeline_halves_on_gae():
    sim, emulator, vsync, fps = build(make_gae)
    spawn_video(sim, emulator, vsync, fps)
    sim.run(until=5_000.0)
    assert 25.0 < fps.fps(5_000.0, warmup_ms=1_000.0) < 40.0


def test_flinger_presents_at_most_once_per_vsync():
    sim, emulator, vsync, fps = build()
    spawn_video(sim, emulator, vsync, fps)
    sim.run(until=3_000.0)
    times = fps.present_times
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert min(deltas) >= 16.0  # one frame per tick, never faster


def test_flinger_supersede_drops_when_backlogged():
    """Two frames pending at one tick: the older is dropped (catch-up)."""
    sim, emulator, vsync, fps = build()
    queue = BufferQueue(sim, emulator, 4, UHD_FRAME_BYTES)
    flinger = SurfaceFlinger(sim, emulator, vsync, fps)
    sim.spawn(flinger.run(), name="sf")
    for sequence in range(3):
        buffer = queue.try_dequeue_free()
        flinger.submit(buffer, queue, FrameMeta(birth=0.0, sequence=sequence))
    sim.run(until=100.0)
    assert fps.dropped.get("superseded", 0) + fps.dropped.get("missed-deadline", 0) == 2
    assert fps.presented >= 1


def test_deadline_discard_counts_missed_frames():
    sim, emulator, vsync, fps = build()
    queue = BufferQueue(sim, emulator, 4, UHD_FRAME_BYTES)
    flinger = SurfaceFlinger(sim, emulator, vsync, fps, honor_deadlines=True)
    sim.spawn(flinger.run(), name="sf")
    stale = FrameMeta(birth=0.0, sequence=0, deadline=1.0)  # long past
    fresh = FrameMeta(birth=0.0, sequence=1)
    for meta in (stale, fresh):
        buffer = queue.try_dequeue_free()
        flinger.submit(buffer, queue, meta)
    sim.run(until=100.0)
    assert fps.dropped.get("missed-deadline") == 1


def test_media_source_drops_on_overrun():
    """A stalled decoder forces source-side frame drops (§5.3 stutter)."""
    sim, emulator, vsync, fps = build()
    queue = BufferQueue(sim, emulator, 1, UHD_FRAME_BYTES)
    flinger = SurfaceFlinger(sim, emulator, vsync, fps)
    media = MediaService(sim, emulator, queue, flinger, fps,
                         frame_bytes=UHD_FRAME_BYTES, jitter_capacity=2)
    # no decoder/callback processes: the jitter queue can only fill up
    sim.spawn(media.run_source(), name="source")
    sim.run(until=2_000.0)
    assert fps.dropped.get("source-overrun", 0) > 50


def test_camera_service_measures_capture_latency():
    sim, emulator, vsync, fps = build()
    latency = LatencyCollector()
    raw = BufferQueue(sim, emulator, 3, UHD_FRAME_BYTES)
    out = BufferQueue(sim, emulator, 3, UHD_FRAME_BYTES)
    flinger = SurfaceFlinger(sim, emulator, vsync, fps, latency=latency,
                             compose_dirty_fraction=0.9, honor_deadlines=False)
    service = CameraService(sim, emulator, raw, out, flinger, fps,
                            frame_bytes=UHD_FRAME_BYTES)
    sim.spawn(flinger.run(), name="sf")
    sim.spawn(service.run_sensor(), name="sensor")
    sim.spawn(service.run_pipeline(), name="pipeline")
    sim.run(until=4_000.0)
    assert latency.samples
    # motion-to-photon must at least include the 25 ms USB capture path
    assert latency.average > 25.0
    assert latency.average < 100.0  # the §1 comfort bound on vSoC
