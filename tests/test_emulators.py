"""Integration tests for emulator assemblies (repro.emulators)."""

import random

import pytest

from repro.core.coherence import UnifiedWriteInvalidate
from repro.core.ordering import OrderingMode
from repro.emulators import (
    EMULATOR_FACTORIES,
    make_gae,
    make_qemu_kvm,
    make_trinity,
    make_vsoc,
)
from repro.errors import CapabilityError, ConfigurationError
from repro.hw import build_machine
from repro.sim import Simulator, Timeout
from repro.units import MIB, UHD_FRAME_BYTES


def make(factory, **kwargs):
    sim = Simulator()
    machine = build_machine(sim)
    return sim, factory(sim, machine, rng=random.Random(0), **kwargs)


# --- construction & capabilities ----------------------------------------------

def test_every_factory_builds():
    for name, factory in EMULATOR_FACTORIES.items():
        _sim, emulator = make(factory)
        assert emulator.name.startswith(name.split("(")[0])


def test_vsoc_uses_unified_prefetch_protocol():
    _sim, emulator = make(make_vsoc)
    assert emulator.protocol.name == "unified-prefetch"
    assert emulator.engine is not None
    assert emulator.config.ordering is OrderingMode.FENCES


def test_baselines_use_guest_memory_protocol():
    for factory in (make_gae, make_qemu_kvm, make_trinity):
        _sim, emulator = make(factory)
        assert emulator.protocol.name == "guest-memory-write-invalidate"
        assert emulator.engine is None


def test_ablation_flags():
    _sim, no_prefetch = make(make_vsoc, prefetch=False)
    assert no_prefetch.config.coherence is UnifiedWriteInvalidate
    assert no_prefetch.protocol.name == "unified-write-invalidate"
    assert no_prefetch.atomic_svm_stages  # §5.4: fences cannot order SVM stages
    _sim, no_fence = make(make_vsoc, fences=False)
    assert no_fence.config.ordering is OrderingMode.ATOMIC
    assert not no_fence.atomic_svm_stages
    assert no_fence.engine is not None


#: (prefetch, fences, broadcast) -> (protocol, emulator name, ordering,
#: has an engine, a read-only SVM stage returns after host retirement).
VSOC_FLAG_TABLE = {
    (True, True, False): ("unified-prefetch", "vSoC", "FENCES", True, False),
    (True, False, False): ("unified-prefetch", "vSoC(no-fence)", "ATOMIC", True, True),
    (False, True, False): (
        "unified-write-invalidate", "vSoC(no-prefetch)", "FENCES", False, True,
    ),
    (False, False, False): (
        "unified-write-invalidate", "vSoC(no-prefetch,no-fence)", "ATOMIC", False, True,
    ),
    (True, True, True): ("unified-broadcast", "vSoC(broadcast)", "FENCES", False, False),
    (True, False, True): (
        "unified-broadcast", "vSoC(broadcast,no-fence)", "ATOMIC", False, True,
    ),
    # Broadcast replaces the prefetch protocol: without it, refused.
    (False, True, True): ConfigurationError,
    (False, False, True): ConfigurationError,
}


@pytest.mark.parametrize("flags", sorted(VSOC_FLAG_TABLE))
def test_make_vsoc_flag_table(flags):
    """Every combination of make_vsoc's three flags builds one emulator,
    named after each flag it changes, except broadcast without prefetch,
    which it refuses; SVM stages block to host retirement under atomic
    ordering or write-invalidate (§5.4)."""
    prefetch, fences, broadcast = flags
    if VSOC_FLAG_TABLE[flags] is ConfigurationError:
        with pytest.raises(ConfigurationError, match="prefetch=False"):
            make(make_vsoc, prefetch=prefetch, fences=fences, broadcast=broadcast)
        return
    protocol, name, ordering, has_engine, read_waits = VSOC_FLAG_TABLE[flags]
    sim, emulator = make(make_vsoc, prefetch=prefetch, fences=fences, broadcast=broadcast)
    assert emulator.protocol.name == protocol
    assert emulator.name == name
    assert emulator.config.ordering is OrderingMode[ordering]
    assert (emulator.engine is not None) == has_engine
    returned = {}

    def app():
        rid = emulator.svm_alloc(MIB)
        write = yield from emulator.stage("codec", "hw_decode", MIB, writes=[rid])
        yield write.done
        read = yield from emulator.stage("gpu", "render", MIB, reads=[rid])
        returned["retired"] = read.done.fired

    sim.spawn(app())
    sim.run()
    assert returned["retired"] == read_waits


def test_trinity_lacks_camera_and_encoder():
    _sim, trinity = make(make_trinity)
    assert not trinity.has_vdev("camera")
    assert not trinity.supports_encoding()
    with pytest.raises(CapabilityError):
        trinity.physical_for("camera")
    with pytest.raises(CapabilityError):
        trinity.encode_op()


def test_codec_data_lives_in_host_memory():
    """libavcodec output buffers are host-resident even with hw decode."""
    _sim, vsoc = make(make_vsoc)
    assert vsoc.vdev_location("codec") == "host"
    assert vsoc.vdev_location("gpu") == "gpu"
    assert vsoc.vdev_location("display") == "gpu"  # GPU-managed window


def test_decode_op_selection():
    _sim, vsoc = make(make_vsoc)
    assert vsoc.decode_op() == "hw_decode"
    _sim, gae = make(make_gae)
    assert gae.decode_op() == "sw_decode"


# --- stage machinery -----------------------------------------------------------

def run_write_read(sim, emulator, nbytes=UHD_FRAME_BYTES, slack=12.0, cycles=1):
    """Decode-write → render-read cycles; returns the last (write, read).

    Multiple cycles warm the twin hypergraphs: the paper notes predictions
    fail during startup when no history exists (§5.2), so steady-state
    assertions should skip the first generation.
    """
    outcome = {}

    def app():
        rid = emulator.svm_alloc(nbytes)
        for _ in range(cycles):
            write = yield from emulator.stage(
                "codec", emulator.decode_op(), nbytes, writes=[rid]
            )
            yield write.done
            yield Timeout(slack)
            read = yield from emulator.stage("gpu", "render", nbytes, reads=[rid])
            yield read.done
            outcome["write"], outcome["read"] = write, read

    sim.spawn(app(), name="app")
    sim.run(until=10_000.0)
    return outcome["write"], outcome["read"]


def test_fences_mode_write_returns_before_host_completion():
    sim, vsoc = make(make_vsoc)
    times = {}

    def app():
        rid = vsoc.svm_alloc(UHD_FRAME_BYTES)
        write = yield from vsoc.stage("codec", "hw_decode", UHD_FRAME_BYTES, writes=[rid])
        times["returned"] = sim.now
        done_at = yield write.done
        times["retired"] = done_at

    sim.spawn(app())
    sim.run()
    # the driver returned well before the ~9 ms decode retired on the host
    assert times["returned"] < 1.0
    assert times["retired"] > 8.0


def test_atomic_mode_write_blocks_until_host_completion():
    sim, gae = make(make_gae)
    times = {}

    def app():
        rid = gae.svm_alloc(UHD_FRAME_BYTES)
        write = yield from gae.stage("codec", "sw_decode", UHD_FRAME_BYTES, writes=[rid])
        times["returned"] = sim.now
        assert write.done.fired

    sim.spawn(app())
    sim.run()
    # software decode ~26 ms + flush ~3.5 ms, all on the caller's back
    assert times["returned"] > 25.0


def test_fence_orders_cross_device_read_after_write():
    """Figure 9c: the read op must observe the completed write."""
    sim, vsoc = make(make_vsoc)
    write, read = run_write_read(sim, vsoc, slack=0.0)
    write_retired = write.done.value
    read_retired = read.done.value
    assert read_retired > write_retired


def test_vsoc_cross_device_read_is_cheap_after_slack():
    sim, vsoc = make(make_vsoc)
    _write, read = run_write_read(sim, vsoc, slack=14.0, cycles=3)
    # prefetch (host->gpu, ~2.4 ms) hid under the 14 ms slack
    assert read.access_latency < 1.0
    assert vsoc.engine.stats.launched >= 1


def test_write_invalidate_read_blocks():
    sim, ablated = make(make_vsoc, prefetch=False)
    _write, read = run_write_read(sim, ablated, slack=14.0)
    assert read.access_latency > 2.0  # synchronous maintenance at begin_access


def test_baseline_coherence_via_guest_memory():
    sim, gae = make(make_gae)
    run_write_read(sim, gae, slack=14.0)
    maintenances = gae.trace.of_kind("coherence.maintenance")
    assert len(maintenances) == 1
    assert maintenances[0]["path"] == "guest-memory"
    assert maintenances[0]["duration"] > 6.0  # two boundary crossings


def test_flow_control_completes_per_stage():
    sim, vsoc = make(make_vsoc)

    def app():
        rid = vsoc.svm_alloc(MIB)
        for _ in range(20):
            result = yield from vsoc.stage("gpu", "render", MIB, writes=[rid])
            yield result.done

    sim.spawn(app())
    sim.run()
    gpu = vsoc._vdevs["gpu"]
    assert gpu.flow.in_flight == 0


def test_multi_region_stage_isp_style():
    """An ISP-style op reading one region and writing another."""
    sim, vsoc = make(make_vsoc)
    outcome = {}

    def app():
        src = vsoc.svm_alloc(UHD_FRAME_BYTES)
        dst = vsoc.svm_alloc(UHD_FRAME_BYTES)
        deliver = yield from vsoc.stage("camera", "deliver", UHD_FRAME_BYTES, writes=[src])
        yield deliver.done
        convert = yield from vsoc.stage(
            "isp", "convert", UHD_FRAME_BYTES, reads=[src], writes=[dst]
        )
        yield convert.done
        outcome["src"] = vsoc.manager.get(src)
        outcome["dst"] = vsoc.manager.get(dst)

    sim.spawn(app())
    sim.run()
    assert outcome["dst"].last_writer_vdev == "isp"
    assert outcome["src"].reader_vdevs == {"isp"}


def test_compute_stage_without_regions():
    sim, vsoc = make(make_vsoc)

    def app():
        result = yield from vsoc.stage("gpu", "render", 100 * MIB)
        yield result.done

    p = sim.spawn(app())
    sim.run()
    assert not p.alive
    assert vsoc.machine.gpu.ops_executed == 1


def test_stall_injector_freezes_codec_paths():
    from repro.emulators.commercial import make_bluestacks

    sim, bluestacks = make(make_bluestacks)
    stage_times = []

    def app():
        rid = bluestacks.svm_alloc(MIB)
        while sim.now < 20_000.0:
            start = sim.now
            result = yield from bluestacks.stage(
                "codec", "sw_decode", MIB, writes=[rid]
            )
            yield result.done
            stage_times.append(sim.now - start)
            yield Timeout(16.7)

    sim.spawn(app())
    sim.run(until=20_000.0)
    # at least one stage caught a multi-second freeze
    assert max(stage_times) > 1_000.0
