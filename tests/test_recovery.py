"""Recovery-stack tests (ISSUE 4): snapshots, crash recovery, and auditing.

Covers the robustness contract end to end:

* fence poisoning releases waiters, and poisoned indices are only recycled
  after the recovery coordinator acknowledges the poison;
* fault plans reject overlapping windows and out-of-order timelines at
  build/validate time;
* snapshots round-trip losslessly, reject corruption, and — the property
  that makes them crash-consistent — restoring at any cut point and running
  on produces a bit-identical trace tail;
* the invariant auditor is clean on healthy runs, observation-transparent,
  and actually fires on deliberately broken state;
* the kernel primitives recovery is built on (``Process.kill``,
  ``FifoQueue.reset``) honour their contracts.
"""

import json
import random

import pytest

from repro.core.fence import POISONED_STATUS, VirtualFenceTable
from repro.errors import (
    ConfigurationError,
    FenceError,
    InvariantViolation,
    SnapshotCorruptError,
)
from repro.experiments.chaos import crash_chaos_plan, crash_with_faults_plan
from repro.experiments.recover import (
    build_harness,
    capture_at,
    restore_and_continue,
    snapshot_roundtrip_check,
    trace_tuples,
)
from repro.faults import FaultPlan
from repro.recovery import Snapshot, install_auditor
from repro.sim import Simulator
from repro.sim.primitives import FifoQueue, Timeout


# -- fence poisoning and recycle gating (satellite 1) ------------------------

def test_poisoned_fence_releases_waiters_and_ignores_zombie_signal():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=8)
    fence = table.allocate()
    fence.owner = "codec"
    observed = []

    def waiter():
        status = yield fence.wait()
        observed.append(status)

    sim.spawn(waiter(), name="waiter")
    sim.run(until=1.0)
    assert observed == []  # fence still pending, waiter parked

    assert table.poison_owned("codec") == [fence]
    sim.run(until=2.0)
    assert observed == [POISONED_STATUS]

    # The crashed device's signal command may still arrive through the
    # reset queue — the zombie echo must be a silent no-op.
    fence.signal()
    assert fence.poisoned
    assert fence.poison() is True  # idempotent


def test_poison_ack_gates_fence_index_recycling():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=2)
    poisoned = table.allocate()
    poisoned.owner = "codec"
    signaled = table.allocate()
    signaled.signal()
    table.poison_owned("codec")

    # Free list is empty: the next allocate recycles — but only the
    # signalled slot; the un-acked poisoned slot stays pinned.
    reused = table.allocate()
    assert reused.index == signaled.index
    assert table._slots[poisoned.index] is poisoned

    reused.signal()
    second = table.allocate()
    assert second.index == reused.index
    assert table._slots[poisoned.index] is poisoned  # still pinned

    # After acknowledgement the slot finally becomes reclaimable.
    table.acknowledge_poison(poisoned.index)
    second.signal()
    table.allocate()
    assert poisoned.index not in table._slots


def test_acknowledging_a_non_poisoned_fence_is_an_error():
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=4)
    fence = table.allocate()
    with pytest.raises(FenceError):
        table.acknowledge_poison(fence.index)
    fence.signal()
    with pytest.raises(FenceError):
        table.acknowledge_poison(fence.index)


# -- fault-plan build-time validation (satellite 2) ---------------------------

def test_overlapping_copy_fault_windows_rejected():
    plan = (
        FaultPlan()
        .copy_faults(1_000.0, 3_000.0, probability=0.5, bus="pcie")
        .copy_faults(2_500.0, 4_000.0, probability=0.1, bus="pcie")
    )
    with pytest.raises(ConfigurationError):
        plan.validate()


def test_wildcard_copy_window_overlap_with_named_bus_rejected():
    plan = (
        FaultPlan()
        .copy_faults(1_000.0, 3_000.0, probability=0.5, bus="pcie")
        .copy_faults(2_000.0, 5_000.0, probability=0.5)  # every bus
    )
    with pytest.raises(ConfigurationError):
        plan.validate()


def test_out_of_order_events_for_one_target_rejected():
    plan = (
        FaultPlan()
        .crash_device(5_000.0, "gpu", downtime_ms=300.0)
        .crash_device(2_000.0, "gpu", downtime_ms=300.0)
    )
    with pytest.raises(ConfigurationError):
        plan.validate()


def test_crash_inside_prior_recovery_downtime_rejected():
    plan = (
        FaultPlan()
        .crash_device(2_000.0, "codec", downtime_ms=500.0)
        .crash_device(2_300.0, "codec", downtime_ms=100.0)
    )
    with pytest.raises(ConfigurationError):
        plan.validate()


def test_overlapping_stall_and_reset_on_one_device_rejected():
    plan = (
        FaultPlan()
        .stall_device(1_000.0, "gpu", duration_ms=500.0)
        .reset_device(1_200.0, "gpu", downtime_ms=100.0)
    )
    with pytest.raises(ConfigurationError):
        plan.validate()


def test_shipped_crash_plans_pass_validation():
    crash_chaos_plan().validate()
    crash_with_faults_plan().validate()


# -- snapshot round-trip and corruption rejection ----------------------------

def test_snapshot_roundtrip_and_corruption_rejection():
    result = snapshot_roundtrip_check(cut_ms=1_500.0)
    assert result == {
        "serialization_lossless": True,
        "roundtrip_digest_identical": True,
        "corruption_rejected": True,
        "truncation_rejected": True,
    }


def test_snapshot_file_save_load_and_checksum(tmp_path):
    snapshot = capture_at("vSoC", "video", 0, 1_200.0)
    path = tmp_path / "snapshot.json"
    snapshot.save(path)
    loaded = Snapshot.load(path)
    assert loaded.digest() == snapshot.digest()
    assert loaded.recipe == snapshot.recipe

    # One flipped byte inside the state payload must fail the checksum.
    path.write_text(path.read_text().replace('"sim_now"', '"sim_noW"', 1))
    with pytest.raises(SnapshotCorruptError):
        Snapshot.load(path)


def test_snapshot_from_garbage_rejected():
    with pytest.raises(SnapshotCorruptError):
        Snapshot.from_json("not json at all")
    with pytest.raises(SnapshotCorruptError):
        Snapshot.from_json("{}")


# -- checkpoint/restore determinism (satellite 3) -----------------------------

@pytest.mark.parametrize("emulator_name", ["vSoC", "GAE"])
@pytest.mark.parametrize("app_name", ["video", "camera"])
def test_restore_then_run_bit_matches_uninterrupted(emulator_name, app_name):
    """Restore at T, run to T+Δ: the trace tail must be bit-identical."""
    total_ms = 3_000.0
    rng = random.Random(f"{emulator_name}/{app_name}")
    cuts = sorted(round(rng.uniform(400.0, 2_400.0), 1) for _ in range(5))

    reference = build_harness(emulator_name, app_name, seed=0)
    reference.sim.run(until=total_ms)
    ref_tuples = trace_tuples(reference.trace)

    for cut_ms in cuts:
        snapshot = capture_at(emulator_name, app_name, 0, cut_ms)
        # Round-trip through the serialized form so the comparison covers
        # the on-disk format too.
        snapshot = Snapshot.from_json(snapshot.to_json())
        resumed = restore_and_continue(snapshot, total_ms)
        resumed_tail = [t for t in trace_tuples(resumed.trace) if t[0] >= cut_ms]
        reference_tail = [t for t in ref_tuples if t[0] >= cut_ms]
        assert resumed_tail == reference_tail, f"diverged after restore at {cut_ms}"


def test_recover_runs_its_crash_scenarios_at_the_given_seed(tmp_path):
    """``recover --seed N`` runs its crash scenarios at seed N, not 0."""
    from repro.experiments.chaos import crash_with_faults_plan, run_chaos
    from repro.experiments.recover import cmd_recover

    path = tmp_path / "report.json"
    assert cmd_recover(quick=True, seed=1, report_path=str(path)) == 0
    report = json.loads(path.read_text())
    assert report["seed"] == 1
    at_seed = {
        seed: run_chaos(plan=crash_with_faults_plan(), duration_ms=8_000.0, seed=seed)
        for seed in (0, 1)
    }
    assert at_seed[0].fps != at_seed[1].fps
    scenario = report["crash_recovery"]["scenarios"]["crash-plus-faults"]
    assert scenario["fps"] == at_seed[1].fps


# -- the invariant auditor ----------------------------------------------------

def test_auditor_clean_on_healthy_run():
    harness = build_harness("vSoC", "video", seed=0)
    auditor = install_auditor(harness.emulator)
    harness.sim.run(until=3_000.0)
    auditor.sweep()
    report = auditor.report()
    assert report["clean"]
    assert report["audits"] > 0
    assert report["checks"] > 0
    assert report["violations_by_invariant"] == {}


def test_auditor_is_observation_transparent():
    plain = build_harness("vSoC", "video", seed=0)
    plain.sim.run(until=2_500.0)
    audited = build_harness("vSoC", "video", seed=0)
    install_auditor(audited.emulator)
    audited.sim.run(until=2_500.0)
    assert trace_tuples(plain.trace) == trace_tuples(audited.trace)


def test_auditor_flags_broken_region_bijection():
    harness = build_harness("vSoC", "video", seed=0)
    harness.sim.run(until=1_000.0)
    auditor = install_auditor(harness.emulator)
    manager = harness.emulator.manager
    region_id = next(iter(manager._regions))
    stolen = manager._regions.pop(region_id)
    try:
        assert auditor.sweep() > 0
        assert any(
            v["invariant"] == "hashtable-bijection" for v in auditor.violations
        )
    finally:
        manager._regions[region_id] = stolen


def test_auditor_strict_mode_raises_on_writer_visibility_breach():
    harness = build_harness("vSoC", "video", seed=0)
    harness.sim.run(until=1_000.0)
    auditor = install_auditor(harness.emulator, raise_on_violation=True)
    manager = harness.emulator.manager
    region = manager._regions[next(iter(manager._regions))]
    region.write_in_flight = False
    region.valid_locations = {"host-memory"}
    region.last_writer_location = "gpu-local"
    with pytest.raises(InvariantViolation) as excinfo:
        auditor.sweep()
    assert excinfo.value.invariant == "writer-visibility"


# -- kernel primitives the recovery path depends on ---------------------------

def test_process_kill_runs_finally_cleanup_and_is_idempotent():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield Timeout(100.0)
            log.append("finished")
        finally:
            log.append("cleanup")

    proc = sim.spawn(worker(), name="worker")
    sim.run(until=1.0)
    assert proc.alive
    proc.kill()
    assert not proc.alive
    assert log == ["cleanup"]  # finally ran, body never completed
    proc.kill()  # idempotent
    sim.run(until=200.0)  # the stale timeout callback must be a no-op
    assert log == ["cleanup"]


def test_fifo_queue_reset_returns_lost_items_and_wakes_parked_putters():
    sim = Simulator()
    queue = FifoQueue(sim, capacity=1, name="cmdq")
    assert queue.try_put("a")
    parked = []

    def producer():
        yield queue.put("b")  # blocks: queue is full
        parked.append("admitted")

    def consumer_after_reset():
        item = yield queue.get()
        parked.append(("got", item))

    sim.spawn(producer(), name="producer")
    sim.run(until=1.0)
    assert parked == []

    lost = queue.reset()
    assert lost == ["a", "b"]  # queued item + parked putter's item
    sim.run(until=2.0)
    assert parked == ["admitted"]  # parked putter woken, not deadlocked

    # Getters registered before the reset were dropped; fresh gets see
    # fresh items only.
    sim.spawn(consumer_after_reset(), name="consumer")
    queue.try_put("fresh")
    sim.run(until=3.0)
    assert parked == ["admitted", ("got", "fresh")]


def test_gpu_crash_while_queued_on_the_shared_engine_does_not_wedge_it():
    """Fuzz-shrunk reproducer (fuzz seed 282): on vSoC the gpu, codec and
    display virtual devices share the physical GPU. Killing the gpu
    executor while it waits for that engine must not leave the engine
    granted to the dead process, or the codec's fences never signal."""
    from repro.scenario import run_scenario

    doc = {
        "name": "gpu-crash-shared-engine",
        "emulator": "vSoC",
        "duration_ms": 2000.0,
        "seed": 0,
        "apps": [
            {"name": "app0-graph", "pipeline": "graph", "stages": [
                {"device": "codec", "op": "encode", "bytes": 4194304},
                {"device": "modem", "op": "send", "bytes": 4194304},
            ]},
            {"name": "app1-video", "pipeline": "video"},
        ],
        "environment": {"faults": {"crashes": [
            {"time_ms": 1003.0, "vdev": "gpu", "downtime_ms": 178.2},
        ]}},
    }
    result = run_scenario(doc, strict_audit=True)
    assert result.crashes == 1 and result.recoveries == 1


def test_codec_crash_quarantine_points_provenance_at_the_replay_source():
    """Fuzz-shrunk reproducer (fuzz seed 1077): UHD video on vSoC with the
    codec crashing mid-write. Quarantine drops the torn copy at the codec's
    location; the region's last-writer provenance must follow the replay
    source, or the auditor sees a writer location outside the valid set
    and maintenance would copy from the torn bytes."""
    from repro.scenario import run_scenario

    doc = {
        "name": "video-codec-crash",
        "emulator": "vSoC",
        "duration_ms": 8000.0,
        "seed": 0,
        "apps": [{"name": "uhd-video", "pipeline": "video"}],
        "environment": {"faults": {"crashes": [
            {"time_ms": 1616.0, "vdev": "codec", "downtime_ms": 362.1},
        ]}},
    }
    result = run_scenario(doc, strict_audit=True)
    assert result.violations == []
    assert result.crashes == 1 and result.recoveries == 1
