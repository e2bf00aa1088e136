"""Fast unit tests for the ablation experiments (heavy paths live in
benchmarks/bench_ablations.py)."""

import pytest

from repro.experiments.ablations import sweep_alpha


def test_alpha_sweep_deterministic():
    assert sweep_alpha(seed=3) == sweep_alpha(seed=3)


def test_alpha_sweep_minimum_near_half():
    """§3.3's choice: α=0.5 minimizes slack forecast error on pipeline-like
    series (stable level + noise + occasional rebuffering shifts)."""
    errors = sweep_alpha()
    best = min(errors, key=errors.get)
    assert best == 0.5
    assert errors[0.1] > errors[0.5] < errors[0.9]


def test_alpha_sweep_custom_grid():
    errors = sweep_alpha(alphas=(0.25, 0.75), samples=100)
    assert set(errors) == {0.25, 0.75}
    assert all(e > 0 for e in errors.values())


def test_command_reprs():
    from repro.core.ordering import ExecCommand, SignalFenceCommand, WaitFenceCommand
    from repro.core.fence import VirtualFenceTable
    from repro.core.region import SvmRegion
    from repro.sim import Simulator

    sim = Simulator()
    region = SvmRegion(7, 1024)
    cmd = ExecCommand(sim, "render", 1024, writes=[region])
    assert "render" in repr(cmd) and "#7" in repr(cmd)
    fence = VirtualFenceTable(sim, capacity=4).allocate()
    SignalFenceCommand(fence)
    WaitFenceCommand(fence)
    assert cmd.dirty_window(region) == 1024


def test_dirty_window_clamps():
    from repro.core.ordering import ExecCommand
    from repro.core.region import SvmRegion
    from repro.sim import Simulator

    sim = Simulator()
    region = SvmRegion(1, 1000)
    oversized = ExecCommand(sim, "render", 5000, writes=[region])
    assert oversized.dirty_window(region) == 1000
    windowed = ExecCommand(sim, "render", 5000, writes=[region], dirty_bytes=500)
    assert windowed.dirty_window(region) == 500


def test_compensation_total_is_what_the_driver_applied(monkeypatch):
    """Each arm of the Figure 8 ablation reports the compensation its driver
    blocked for: the sum of its ``svm.compensation`` rows, and nothing when
    the driver-side wait is switched off."""
    from repro.experiments import ablations

    rigs = []
    build = ablations.build_rig

    def recording(*args, **kwargs):
        rigs.append(build(*args, **kwargs))
        return rigs[-1]

    monkeypatch.setattr(ablations, "build_rig", recording)
    results = ablations.compensation_ablation()
    # The enabled arm is built first.
    applied = {
        enabled: sum(rig.trace.values("svm.compensation", "compensation"))
        for enabled, rig in zip((True, False), rigs)
    }
    assert applied[False] == 0.0
    assert results[False].compensation_total_ms == 0.0
    assert applied[True] > 0.0
    assert results[True].compensation_total_ms == pytest.approx(applied[True])
