"""Tests for trace record/replay (repro.workloads) and sensitivity sweeps."""

import pytest

from repro.apps import UhdVideoApp
from repro.errors import ConfigurationError
from repro.experiments.runner import run_app
from repro.workloads import (
    TraceEvent,
    WorkloadTrace,
    record_workload,
    replay_workload,
)
from repro.units import MIB


def recorded_trace(duration_ms=4_000.0):
    run = run_app(UhdVideoApp(), "vSoC", duration_ms=duration_ms)
    return record_workload(run.emulator.trace, name="uhd")


# --- TraceEvent / WorkloadTrace ---------------------------------------------

def test_event_validation():
    with pytest.raises(ConfigurationError):
        TraceEvent(1.0, "teleport", 1).validate()
    with pytest.raises(ConfigurationError):
        TraceEvent(-1.0, "alloc", 1, nbytes=10).validate()
    with pytest.raises(ConfigurationError):
        TraceEvent(1.0, "write", 1, nbytes=0).validate()
    TraceEvent(0.0, "free", 1).validate()  # frees carry no size


def test_trace_requires_time_order():
    events = [
        TraceEvent(5.0, "alloc", 1, nbytes=MIB),
        TraceEvent(1.0, "write", 1, vdev="cpu", nbytes=MIB),
    ]
    with pytest.raises(ConfigurationError):
        WorkloadTrace(name="bad", events=events)


def test_record_produces_cyclic_pattern():
    trace = recorded_trace()
    kinds = [e.kind for e in trace.events]
    assert "alloc" in kinds and "write" in kinds and "read" in kinds
    writes = sum(1 for k in kinds if k == "write")
    reads = sum(1 for k in kinds if k == "read")
    # the §2.3 cyclic W/R pattern: roughly one read per write
    assert 0.5 < reads / writes < 2.0


def test_trace_round_trips_through_json(tmp_path):
    trace = recorded_trace(duration_ms=2_000.0)
    path = tmp_path / "trace.json"
    trace.dump(str(path))
    loaded = WorkloadTrace.load(str(path))
    assert loaded.name == trace.name
    assert loaded.events == trace.events


# --- replay --------------------------------------------------------------------

def test_replay_on_recording_emulator_matches_costs():
    trace = recorded_trace()
    result = replay_workload(trace, "vSoC")
    assert result.events_replayed == len(trace.events)
    assert result.mean_coherence_ms == pytest.approx(2.38, abs=0.15)


def test_replay_isolates_architecture_cost():
    """Identical access sequence, different architectures: the guest-memory
    emulators pay ~3x per maintenance (Fig 5 vs Table 2, replayed)."""
    trace = recorded_trace()
    vsoc = replay_workload(trace, "vSoC")
    gae = replay_workload(trace, "GAE")
    assert gae.mean_coherence_ms > 2.5 * vsoc.mean_coherence_ms
    assert gae.total_coherence_ms > vsoc.total_coherence_ms


def test_replay_cut_short_by_the_horizon_counts_issued_events():
    """GAE's slower coherence puts its replay behind the recording, so the
    horizon stops it part-way; it still reports the events it issued."""
    trace = recorded_trace()
    result = replay_workload(trace, "GAE")
    assert 0 < result.events_replayed < len(trace.events)


def test_replay_skips_unknown_devices_gracefully():
    events = [
        TraceEvent(0.0, "alloc", 1, nbytes=MIB),
        TraceEvent(1.0, "write", 1, vdev="camera", nbytes=MIB),
        TraceEvent(10.0, "read", 1, vdev="gpu", nbytes=MIB),
        TraceEvent(20.0, "free", 1),
    ]
    trace = WorkloadTrace(name="tiny", events=events)
    # Trinity has no camera vdev: the write falls back to the CPU.
    result = replay_workload(trace, "Trinity")
    assert result.events_replayed == 4


# --- sweeps ----------------------------------------------------------------------

def test_boundary_sweep_monotone_until_decode_bound():
    from repro.experiments.sweeps import sweep_boundary_bandwidth

    sweep = sweep_boundary_bandwidth((2.0, 4.6, 18.0), duration_ms=5_000.0)
    assert sweep[2.0] < sweep[4.6] <= sweep[18.0]


def test_gae_never_catches_vsoc_on_video():
    """Even an infinitely fast boundary cannot fix GAE's software decoder:
    no crossover exists — memory architecture is necessary, not sufficient."""
    from repro.experiments.sweeps import boundary_crossover

    assert boundary_crossover(duration_ms=5_000.0) is None


def test_pcie_sweep_degrades_vsoc_when_slow():
    from repro.experiments.sweeps import sweep_pcie_bandwidth

    sweep = sweep_pcie_bandwidth((2.0, 7.0, 14.0), duration_ms=5_000.0)
    assert sweep[14.0] >= sweep[7.0] > sweep[2.0]
    assert sweep[2.0] > 35.0  # degraded, not collapsed (compensation works)
