"""End-to-end chaos tests: the acceptance scenario for the fault framework.

These run the real vSoC emulator + UHD video app under injected faults and
assert the robustness contract end to end: no unhandled exceptions, the
degradation ladder demonstrably enters and exits degraded mode, steady-state
FPS recovers after fault clearance, and the whole run is deterministic
per (plan, seed).
"""

import pytest

from repro.core.degradation import LEVEL_GUEST_ROUNDTRIP, LEVEL_PREFETCHED
from repro.experiments.chaos import run_chaos
from repro.faults import FaultPlan
from repro.metrics.collectors import ResilienceStats

DURATION_MS = 6_000.0


@pytest.fixture(scope="module")
def chaos_run():
    """One full default-scenario run, shared by the assertions below."""
    return run_chaos(duration_ms=DURATION_MS, seed=0, keep_trace=True)


@pytest.fixture(scope="module")
def baseline_run():
    return run_chaos(duration_ms=DURATION_MS, seed=0, plan=FaultPlan())


def test_default_scenario_completes_without_unhandled_exceptions(chaos_run):
    # run_chaos raising would have failed the fixture; check it did real work.
    assert chaos_run.presented > 0
    assert chaos_run.injected["copy_faults"] > 0
    assert chaos_run.injected["load_changes"] > 0
    assert chaos_run.injected["stalls"] == 1
    assert chaos_run.injected["transport_drops"] > 0


def test_default_scenario_enters_and_exits_degraded_mode(chaos_run):
    assert chaos_run.entered_degraded
    assert chaos_run.exited_degraded
    assert 0.0 < chaos_run.time_degraded_ms < DURATION_MS
    trace = chaos_run.trace
    degrades = trace.of_kind("coherence.degrade")
    restores = trace.of_kind("coherence.restore")
    assert degrades and restores
    assert degrades[0].time < restores[-1].time
    # The last restore lands back on the fully optimized path.
    assert restores[-1]["level"] == LEVEL_PREFETCHED


def test_steady_state_fps_recovers_after_clearance(chaos_run, baseline_run):
    assert baseline_run.degrades == 0
    assert baseline_run.retries == 0
    assert chaos_run.steady_after_ms < DURATION_MS
    assert chaos_run.steady_fps >= baseline_run.steady_fps / 2.0


def test_faults_trigger_retries_and_failures(chaos_run):
    assert chaos_run.retries > 0
    assert chaos_run.copy_failures > 0
    assert chaos_run.transport_drops > 0


def _trace_tuples(result):
    return [
        (r.time, r.kind, tuple(sorted(r.fields.items()))) for r in result.trace
    ]


def test_chaos_run_is_deterministic_per_seed():
    a = run_chaos(duration_ms=3_000.0, seed=3, keep_trace=True)
    b = run_chaos(duration_ms=3_000.0, seed=3, keep_trace=True)
    assert a.presented == b.presented
    assert a.fps == b.fps
    assert _trace_tuples(a) == _trace_tuples(b)


def test_chaos_runs_diverge_across_seeds():
    a = run_chaos(duration_ms=3_000.0, seed=1, keep_trace=True)
    b = run_chaos(duration_ms=3_000.0, seed=2, keep_trace=True)
    assert _trace_tuples(a) != _trace_tuples(b)


def test_relentless_copy_faults_escalate_to_guest_roundtrip():
    """With every PCIe copy failing, the ladder must hit level 2 and survive
    on the 4-copy guest round-trip path, then climb back out afterwards."""
    plan = FaultPlan().copy_faults(1_000.0, 3_500.0, probability=1.0, bus="pcie")
    result = run_chaos(duration_ms=DURATION_MS, seed=0, plan=plan, keep_trace=True)
    trace = result.trace
    degrade_levels = [r["level"] for r in trace.of_kind("coherence.degrade")]
    assert LEVEL_GUEST_ROUNDTRIP in degrade_levels
    # Maintenance demonstrably ran on the degraded round-trip path.
    degraded_paths = [
        r for r in trace.of_kind("coherence.maintenance")
        if str(r["path"]).endswith("-degraded")
    ]
    assert degraded_paths
    # After the window clears, probes restore the optimized path.
    restores = trace.of_kind("coherence.restore")
    assert restores and restores[-1]["level"] == LEVEL_PREFETCHED
    assert result.presented > 0


# -- device-crash recovery (ISSUE 4) -----------------------------------------

def _crash_plan() -> FaultPlan:
    """A codec crash and a GPU crash, both mid-run, both recoverable."""
    return (
        FaultPlan()
        .crash_device(1_500.0, "codec", downtime_ms=400.0)
        .crash_device(3_000.0, "gpu", downtime_ms=300.0)
    )


@pytest.fixture(scope="module")
def crash_run():
    return run_chaos(
        duration_ms=5_000.0, seed=0, plan=_crash_plan(), keep_trace=True, audit=True
    )


def test_device_crash_run_completes_and_readmits_every_device(crash_run):
    # The sim reaching the full duration with frames still presenting after
    # the second crash is the no-deadlock property: every waiter of the
    # dead devices' fences saw signalled-or-poisoned.
    assert crash_run.crashes == 2
    assert crash_run.recoveries == 2
    assert crash_run.presented > 0
    # Frames keep presenting after the last recovery completes.
    assert crash_run.steady_fps > 0
    readmits = crash_run.trace.of_kind("recovery.readmit")
    assert len(readmits) == 2
    # Re-admission happens no earlier than crash time + downtime.
    assert readmits[0].time >= 1_500.0 + 400.0
    assert readmits[1].time >= 3_000.0 + 300.0


def test_device_crash_frame_drop_is_bounded(crash_run, baseline_run):
    # Losing two devices for ~700 ms combined must not halve the run's FPS.
    assert crash_run.fps >= baseline_run.fps / 2.0


def test_device_crash_counters_flow_into_resilience_stats(crash_run):
    stats = ResilienceStats(crash_run.trace)
    assert stats.crashes == 2
    assert stats.recoveries == 2
    assert stats.fault_counts().get("fault.device_crash") == 2
    # The recovery state machine demonstrably ran end to end.
    assert crash_run.trace.count("recovery.crash") == 2
    assert crash_run.trace.count("recovery.readmit") == 2


def test_device_crash_run_stays_invariant_clean(crash_run):
    assert crash_run.audit_violations == 0


def test_device_crash_run_is_deterministic():
    a = run_chaos(duration_ms=4_000.0, seed=5, plan=_crash_plan(), keep_trace=True)
    b = run_chaos(duration_ms=4_000.0, seed=5, plan=_crash_plan(), keep_trace=True)
    assert _trace_tuples(a) == _trace_tuples(b)
    assert a.fps == b.fps
