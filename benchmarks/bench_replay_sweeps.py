"""Open-loop replay and bandwidth sensitivity (extension experiments)."""

from repro.apps import UhdVideoApp
from repro.experiments.runner import run_app
from repro.experiments.sweeps import boundary_crossover, sweep_boundary_bandwidth
from repro.workloads import record_workload, replay_workload


def test_open_loop_replay_isolates_architecture(benchmark, bench_duration):
    """Identical access pattern on both architectures: the per-maintenance
    cost ratio matches Table 2 without app-side feedback."""

    def run_replay():
        source = run_app(UhdVideoApp(), "vSoC", duration_ms=bench_duration)
        trace = record_workload(source.emulator.trace, name="uhd")
        return (replay_workload(trace, "vSoC"), replay_workload(trace, "GAE"))

    vsoc, gae = benchmark.pedantic(run_replay, rounds=1, iterations=1)
    benchmark.extra_info["vsoc_mean_coherence_ms"] = round(vsoc.mean_coherence_ms, 2)
    benchmark.extra_info["gae_mean_coherence_ms"] = round(gae.mean_coherence_ms, 2)
    ratio = gae.mean_coherence_ms / vsoc.mean_coherence_ms
    benchmark.extra_info["cost_ratio"] = round(ratio, 2)
    assert 2.0 < ratio < 4.5  # paper Table 2: 7.05 / 2.38 ≈ 3.0


def test_boundary_bandwidth_no_crossover(benchmark, bench_duration):
    """Sensitivity: GAE's video FPS saturates below vSoC's even with an
    arbitrarily fast virtualization boundary — its software decoder is the
    second, independent bottleneck."""

    def run_sweep():
        sweep = sweep_boundary_bandwidth((4.6, 18.0, 72.0),
                                         duration_ms=bench_duration)
        crossover = boundary_crossover(duration_ms=bench_duration,
                                       gbps_values=(18.0, 72.0))
        return sweep, crossover

    sweep, crossover = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    benchmark.extra_info["gae_fps_by_boundary_gbps"] = {
        str(k): round(v, 1) for k, v in sweep.items()
    }
    benchmark.extra_info["crossover_gbps"] = crossover
    assert sweep[72.0] >= sweep[4.6]
    assert crossover is None
