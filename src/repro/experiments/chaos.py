"""Chaos scenarios: app runs under injected faults.

:func:`run_chaos` runs UHD video on one emulator while a seeded
:class:`~repro.faults.FaultInjector` executes a :class:`~repro.faults.FaultPlan`
against its buses, devices, and transport. The result splits FPS into the
whole-run average and the *steady state* after the last fault clears —
the number the acceptance bar ("within 2× of fault-free after clearance")
is measured on.

The default scenario is the acceptance scenario from the fault-model spec:
a flapping PCIe link, a window of transient DMA failures dense enough to
drive the coherence ladder down, one GPU stall, and a burst of dropped
virtio kicks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.video import UhdVideoApp
from repro.experiments.runner import build_rig, drive
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.collectors import ResilienceStats
from repro.sim.tracing import TraceLog
from repro.units import SECOND

DEFAULT_CHAOS_DURATION_MS = 10_000.0

#: Grace period after the last plan event before the "steady state" window
#: starts — in-flight retries and the re-probe interval need a moment.
CLEARANCE_GRACE_MS = 1_000.0

#: The copy planner's per-operation watchdog under chaos: an attempt fails
#: once it runs past this multiple of its queueing-free estimate.
WATCHDOG_MARGIN = 6.0


def default_chaos_plan() -> FaultPlan:
    """Bus flap + transient DMA failures + one device stall + kick drops."""
    return (
        FaultPlan()
        .flap_bus("pcie", start_ms=1_500.0, period_ms=500.0, cycles=6, high_load=0.85)
        .copy_faults(2_000.0, 4_500.0, probability=0.7, bus="pcie")
        .stall_device(3_000.0, "gpu", duration_ms=120.0)
        .transport_faults(2_500.0, 4_000.0, drop_probability=0.25)
    )


def crash_chaos_plan() -> FaultPlan:
    """Two mid-frame device crashes: the codec early, the GPU later.

    The codec crash tears the decode→render coherence flow (its regions
    live in host memory); the GPU crash orphans render fences the display
    executor waits on — together they exercise every arm of the recovery
    state machine (abort, poison, quarantine, replay, re-admit).
    """
    return (
        FaultPlan()
        .crash_device(2_000.0, "codec", downtime_ms=400.0)
        .crash_device(5_000.0, "gpu", downtime_ms=300.0)
    )


def crash_with_faults_plan() -> FaultPlan:
    """Device crashes layered on the default bus/transport chaos."""
    return (
        default_chaos_plan()
        .crash_device(2_200.0, "codec", downtime_ms=400.0)
        .crash_device(6_000.0, "gpu", downtime_ms=300.0)
    )


@dataclass
class ChaosResult:
    """One chaos run, digested."""

    emulator: str
    seed: int
    duration_ms: float
    fps: float
    steady_fps: float
    steady_after_ms: float
    presented: int
    degrades: int
    restores: int
    time_degraded_ms: float
    injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    copy_failures: int = 0
    watchdog_expiries: int = 0
    prefetch_failures: int = 0
    transport_drops: int = 0
    degrade_events: List[Tuple[float, int]] = field(default_factory=list)
    restore_events: List[Tuple[float, int]] = field(default_factory=list)
    trace: Optional[TraceLog] = None
    # device-crash recovery accounting (zeros for plans without crashes)
    crashes: int = 0
    recoveries: int = 0
    aborted_commands: int = 0
    poisoned_fences: int = 0
    quarantined_regions: int = 0
    replayed_copies: int = 0
    audit_violations: int = 0

    @property
    def entered_degraded(self) -> bool:
        return self.degrades > 0

    @property
    def exited_degraded(self) -> bool:
        return self.restores > 0 and self.time_degraded_ms < self.duration_ms


def run_chaos(
    emulator_name: str = "vSoC",
    duration_ms: float = DEFAULT_CHAOS_DURATION_MS,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    keep_trace: bool = False,
    audit: bool = False,
    strict_audit: bool = False,
) -> ChaosResult:
    """Run UHD video under one fault plan; fully deterministic per seed.

    The run is on the high-end desktop with the copy planner's watchdog
    armed at :data:`WATCHDOG_MARGIN`. ``plan=None`` uses
    :func:`default_chaos_plan`; pass an *empty* ``FaultPlan()`` for the
    fault-free baseline (same harness, no injection).
    ``audit=True`` installs the runtime invariant auditor (non-raising;
    violations are counted into the result); ``strict_audit=True``
    implies ``audit`` and raises
    :class:`~repro.errors.InvariantViolation` on the first violation.
    """
    plan = plan if plan is not None else default_chaos_plan()

    rig = build_rig(emulator_name, seed=seed)
    emulator, trace = rig.emulator, rig.trace
    emulator.planner.watchdog_margin = WATCHDOG_MARGIN

    injector = FaultInjector(rig.sim, plan, seed=seed, trace=trace)
    if not plan.is_empty():
        injector.install(emulator)

    auditor = None
    if audit or strict_audit:
        from repro.recovery.audit import install_auditor

        auditor = install_auditor(emulator, raise_on_violation=strict_audit)

    app = UhdVideoApp()
    (installed,), (result,), _ = drive(rig, [app], duration_ms)
    if not installed:
        raise RuntimeError(f"app {app.name!r} failed to install on {emulator_name}")

    resilience = ResilienceStats(trace)
    steady_after = min(duration_ms, plan.last_fault_time() + CLEARANCE_GRACE_MS)
    steady_window = duration_ms - steady_after
    steady_frames = sum(1 for t in app.fps.present_times if t >= steady_after)
    steady_fps = steady_frames / (steady_window / SECOND) if steady_window > 0 else 0.0

    return ChaosResult(
        emulator=emulator_name,
        seed=seed,
        duration_ms=duration_ms,
        fps=result.fps,
        steady_fps=steady_fps,
        steady_after_ms=steady_after,
        presented=result.presented,
        degrades=resilience.degrades,
        restores=resilience.restores,
        time_degraded_ms=resilience.time_in_degraded_mode(duration_ms),
        injected=injector.stats.as_dict(),
        retries=resilience.retries,
        copy_failures=emulator.planner.copy_failures,
        watchdog_expiries=emulator.planner.watchdog_expiries,
        prefetch_failures=resilience.prefetch_failures,
        transport_drops=emulator.transport.kicks_dropped,
        degrade_events=resilience.degrade_events(),
        restore_events=resilience.restore_events(),
        trace=trace if keep_trace else None,
        crashes=resilience.crashes,
        recoveries=resilience.recoveries,
        aborted_commands=(
            injector.coordinator.stats.aborted_commands
            if injector.coordinator is not None
            else 0
        ),
        poisoned_fences=(
            injector.coordinator.stats.poisoned_fences
            if injector.coordinator is not None
            else 0
        ),
        quarantined_regions=(
            injector.coordinator.stats.quarantined_regions
            if injector.coordinator is not None
            else 0
        ),
        replayed_copies=resilience.replayed_copies,
        audit_violations=(
            len(auditor.violations) if auditor is not None else 0
        ),
    )


def run_fault_classes(
    emulator_name: str = "vSoC",
    duration_ms: float = DEFAULT_CHAOS_DURATION_MS,
    seed: int = 0,
    only: Optional[str] = None,
    audit: bool = False,
    strict_audit: bool = False,
) -> Dict[str, ChaosResult]:
    """One run per fault class, plus fault-free and the full scenario.

    This is the per-class report ``benchmarks/bench_chaos.py`` prints:
    how much FPS each class of disturbance costs on its own. ``only``
    restricts the sweep to a single class (the fault-free baseline is
    always included for comparison) — the shape the chaos CLI's
    one-line reproducer commands replay. ``audit``/``strict_audit``
    arm the invariant auditor on every run (strict = first violation
    raises), matching the ``--strict-audit`` CLI flag.
    """
    plans: Dict[str, FaultPlan] = {
        "fault-free": FaultPlan(),
        "bus-flap": FaultPlan().flap_bus(
            "pcie", start_ms=1_500.0, period_ms=500.0, cycles=6, high_load=0.85
        ),
        "copy-faults": FaultPlan().copy_faults(2_000.0, 4_500.0, probability=0.7, bus="pcie"),
        "device-stall": FaultPlan().stall_device(3_000.0, "gpu", duration_ms=120.0),
        "transport-drops": FaultPlan().transport_faults(
            2_500.0, 4_000.0, drop_probability=0.25
        ),
        "device-crash": crash_chaos_plan(),
        "full-chaos": default_chaos_plan(),
    }
    if only is not None:
        if only not in plans:
            raise ValueError(
                f"unknown fault class {only!r}; choices: {sorted(plans)}"
            )
        plans = {label: plan for label, plan in plans.items()
                 if label in ("fault-free", only)}
    return {
        label: run_chaos(
            emulator_name, duration_ms=duration_ms, seed=seed, plan=plan,
            audit=audit, strict_audit=strict_audit,
        )
        for label, plan in plans.items()
    }
