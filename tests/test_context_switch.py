"""Tests for §3.4's GPU context-switch deferral under fences."""

import random

from repro.emulators import make_gae, make_vsoc
from repro.hw import build_machine
from repro.sim import Simulator
from repro.units import MIB


def timeline(factory, **kwargs):
    sim = Simulator()
    machine = build_machine(sim)
    emulator = factory(sim, machine, rng=random.Random(0), **kwargs)
    done_times = []

    def app():
        rid = emulator.svm_alloc(MIB)
        # alternate GPU-backed virtual devices: every op is a context switch
        for _ in range(10):
            render = yield from emulator.stage("gpu", "present", 0)
            yield render.done
            compose = yield from emulator.stage("display", "present", 0)
            yield compose.done
            done_times.append(sim.now)

    sim.spawn(app(), name="app")
    sim.run(until=5_000.0)
    return done_times, emulator


def test_fences_defer_gpu_context_switches():
    """The same alternating workload finishes faster under fences because
    the context switches ride the asynchronous command stream."""
    fences_times, _ = timeline(make_vsoc)
    atomic_times, _ = timeline(make_vsoc, fences=False)
    assert fences_times[-1] < atomic_times[-1]
    # each atomic round pays ~2 switches x 0.45 ms
    per_round_gap = (atomic_times[-1] - fences_times[-1]) / len(atomic_times)
    assert per_round_gap > 0.5


def test_only_emulators_whose_switches_can_stall_track_gpu_contexts():
    """A fenced vSoC never prices a switch, so its executors leave the GPU
    context untracked; atomic vSoC and the no-prefetch ablation (fences,
    but atomic SVM stages) still track and stall for every hand-over."""
    _, fenced = timeline(make_vsoc)
    assert fenced._gpu_context == {}
    for kwargs in ({"fences": False}, {"prefetch": False}):
        _, stalling = timeline(make_vsoc, **kwargs)
        assert stalling._gpu_context == {"gpu": "display"}


def test_same_vdev_ops_pay_no_switch():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_vsoc(sim, machine, rng=random.Random(0), fences=False)

    def app():
        for _ in range(5):
            result = yield from emulator.stage("gpu", "present", 0)
            yield result.done
        return sim.now

    p = sim.spawn(app(), name="app")
    sim.run()
    # 5 presents at 0.05 ms + dispatch overheads; no 0.45 ms switches
    assert p.value < 2.0


def test_non_gpu_devices_never_switch():
    sim = Simulator()
    machine = build_machine(sim)
    emulator = make_gae(sim, machine, rng=random.Random(0))

    def app():
        rid = emulator.svm_alloc(MIB)
        write = yield from emulator.stage("camera", "deliver", MIB, writes=[rid])
        read = yield from emulator.stage("cpu", "memcpy", MIB, reads=[rid])
        return sim.now

    p = sim.spawn(app(), name="app")
    sim.run()
    assert emulator._gpu_context == {}  # only GPU-kind devices tracked
